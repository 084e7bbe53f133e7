"""The sign exam against reference copies of its two searches.

``reference_recover_sign`` is the cold search as it stood when it ran
in contraction rounds and began with a pass that pinned exact zero
chart coordinates with probes at +-1e-13: every probe rebuilt the
center and half-width arrays and took two norms, and eps_est was tested
only at the end of a round.  The cold exam now opens every coordinate
at the full chart bound and runs one bisection that stops on its
target, so the two share their d sign queries and anchor, and each
certifies its own estimate.  ``reference_warm_sign_search`` is the warm
search as it stood before the cold and warm searches shared one chart
engine; the warm exam still matches it byte for byte: the same queries
in the same order, the same estimates, the same certificate.  Both
references are kept verbatim, apart from their names, the two
constants the cold one once read from RecoveryConfig (rho = 0.8 and
60 rounds), and two interface changes: they take the norm and eps_est
as arguments, as approx_recover_sign does, where they once read both
from a RecoveryConfig, and they no longer pass ExamResult an exam kind.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from teachsim.exam import (ExamResult, RemoteLearner, _tangent_frame,
                           approx_recover_sign)
from teachsim.feature_space import conjugate_apply, random_map
from teachsim.learners import LearnerState
from test_exam import _PRIORS, _cold_exam_queries, _prior_and_target

# The reference cold search's zero-pinning offset.
_PIN_OFFSET = 1e-13


def reference_recover_sign(sign_oracle, d, norm, eps_est):
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
    chord) or after 60 rounds.  Reported angle_bound is the certified
    sine bound E_k; queries_used counts every oracle call.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rho = 0.8
    counter = {"n": 0}

    def ask(q):
        counter["n"] += 1
        return 1.0 if sign_oracle(q) >= 0 else -1.0

    if d == 1:
        s = ask(np.ones(1))
        v_hat = np.array([s * norm])
        return ExamResult(v_hat=v_hat, queries_used=counter["n"],
                          angle_bound=0.0, known_norm=norm,
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
                          angle_bound=angle_bound, known_norm=norm,
                          alpha_history=tuple(history))

    for k in range(1, 60 + 1):
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
        if norm * 2.0 * err <= eps_est or err <= 1e-15:
            break

    v_hat = norm * history[-1]
    return ExamResult(v_hat=v_hat, queries_used=counter["n"],
                      angle_bound=angle_bound, known_norm=norm,
                      alpha_history=tuple(history))


def reference_warm_sign_search(sign_oracle, d, norm, eps_est, prior,
                               radius):
    """The sign search anchored at a prior, for d >= 2.

    Returns (result, queries spent); result is None when the prior
    cannot anchor the chart and the cold search must run.

    1. Anchor check: one query at alpha_0 = prior / ||prior||.  An
       answer < 0 puts u on the far side of the tangent plane.  A zero
       or non-finite prior has no direction and spends nothing.
    2. Galloping brackets (the exponential search of Bentley and Yao,
       1976): a probe at t = 0 names the side of p_j, then probes at
       t = r, 2r, 4r, ... on that side, with r = radius, answer
       sign(p_j - t) until the answer flips, which brackets p_j.  A
       coordinate beyond sqrt(d - 1), the cold chart's bound, ends the
       attempt.  That cap also stops an orthogonal prior: the anchor
       check answers it ">= 0", but <u, alpha_0> = 0 makes p unbounded
       and every answer the same.
    3. Bisect the widest bracket until the final test of the cold
       search holds, within the cold loop's budget of 64 (d - 1) probes,
       and stop early once the widest bracket is down to adjacent floats.

    There are no rounds: the cold contraction rule is relative to ||p||,
    which a good prior makes tiny, so it would bisect towards the 1e-15
    floor.  For the same reason exact zero coordinates need no pinning
    pass; their brackets halve like any other.  Every bracket is
    certified by answers alone, so a poor prior costs queries but never
    correctness.  alpha_history is (alpha_0, final estimate).
    """
    scale = float(np.linalg.norm(prior))
    if not (math.isfinite(scale) and scale > 0):
        return None, 0
    alpha0 = np.asarray(prior, dtype=np.float64) / scale
    if sign_oracle(alpha0) < 0:
        return None, 1
    taus = _tangent_frame(alpha0)
    rows = np.ascontiguousarray(taus.T)
    queries = 1

    def above(j, t):
        """Whether p_j >= t, from the probe tau_j - t * alpha0."""
        nonlocal queries
        queries += 1
        return sign_oracle(rows[j] - t * alpha0) >= 0

    m = d - 1
    cap = math.sqrt(d - 1)
    r = min(radius, cap)
    lo = [0.0] * m
    hi = [0.0] * m
    for j in range(m):
        # p_j lies on the side of 0 the first answer names, beyond
        # inner; double outwards until an answer flips
        outward = above(j, 0.0)
        inner, t = 0.0, (r if outward else -r)
        while abs(t) <= cap and above(j, t) == outward:
            inner, t = t, 2.0 * t
        if abs(t) > cap:
            return None, queries
        lo[j], hi[j] = (inner, t) if outward else (t, inner)

    lo_a, hi_a = np.array(lo), np.array(hi)
    half = 0.5 * (hi_a - lo_a)
    center = 0.5 * (lo_a + hi_a)
    width = hi_a - lo_a
    err = math.sqrt(half.dot(half))
    for _ in range(64 * m):
        if norm * 2.0 * err <= eps_est or err <= 1e-15:
            break
        j = int(width.argmax())
        mid = 0.5 * (lo[j] + hi[j])
        if not lo[j] < mid < hi[j]:
            break  # the widest bracket is down to adjacent floats
        if above(j, mid):
            lo[j] = mid
        else:
            hi[j] = mid
        gap = hi[j] - lo[j]
        width[j] = gap
        half[j] = 0.5 * gap
        center[j] = 0.5 * (lo[j] + hi[j])
        err = math.sqrt(half.dot(half))
    estimate = alpha0 + taus @ center
    estimate /= np.linalg.norm(estimate)
    return ExamResult(v_hat=norm * estimate, queries_used=queries,
                      angle_bound=err, known_norm=norm,
                      alpha_history=(alpha0, estimate)), queries


def _student_image(d, start, gen):
    """A teacher-space target v = G^T w of the requested shape.

    "random": Gaussian.  "zeros": Gaussian with about a third of its
    coordinates exactly zero.  "pinned": on the chart of its own sign
    pattern, with about half of the chart coordinates exactly zero (the
    reference's pinning pass fixes those).  "aligned": a sign pattern,
    every chart coordinate zero.
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


def _recorded_exam(search, fmap, w, norm, eps_est):
    """Run one sign exam; returns its queries' bytes and its result."""
    remote = RemoteLearner(LearnerState(w=w, eta=0.1, loss="square",
                                        feedback="sign"), fmap)
    sent = []

    def oracle(q):
        sent.append(np.asarray(q, dtype=np.float64).tobytes())
        return remote.query(q)

    result = search(oracle, fmap.d, norm, eps_est)
    assert result.queries_used == len(sent) == remote.query_samples
    return sent, result


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _assert_follows_reference(sent, got, sent_ref, ref, norm, eps_est, d):
    """The cold exam asks the reference's d sign queries, anchors where
    it does, and stops on its target; the two estimates lie within the
    sum of their certified errors of each other.

    The target is eps_est, unless the bisection reaches the 1e-15 floor
    or its widest bracket reaches adjacent floats first; a bracket then
    has a half-width of at most ulp(sqrt(d - 1)).
    """
    assert sent[:d] == sent_ref[:d]
    assert _bits(got.alpha_history[0]) == _bits(ref.alpha_history[0])
    e = got.angle_bound
    m = d - 1
    floor = math.sqrt(m) * np.spacing(math.sqrt(m))
    assert norm * 2.0 * e <= eps_est or e <= max(1e-15, floor)
    gap = float(np.linalg.norm(got.v_hat - ref.v_hat))
    assert gap <= got.est_error() + ref.est_error()
    assert got.known_norm == ref.known_norm == norm


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 50),
       map_kind=st.sampled_from(("identity", "unitary", "general")),
       start=st.sampled_from(("random", "zeros", "pinned", "aligned")),
       seed=st.integers(0, 2 ** 32 - 1),
       log_eps=st.floats(-16.0, -2.0))
@example(d=1, map_kind="general", start="random", seed=1, log_eps=-6.0)
@example(d=9, map_kind="identity", start="aligned", seed=2, log_eps=-6.0)
@example(d=20, map_kind="unitary", start="pinned", seed=3, log_eps=-12.0)
@example(d=50, map_kind="general", start="zeros", seed=4, log_eps=-12.0)
@example(d=12, map_kind="unitary", start="pinned", seed=5, log_eps=-16.0)
def test_cold_search_follows_reference_probes_to_its_target(d, map_kind,
                                                            start, seed,
                                                            log_eps):
    gen = np.random.default_rng(seed)
    fmap = random_map(d, map_kind, seed)
    v = _student_image(d, start, gen)
    # the student's weights w solve G^T w = v
    w = v if map_kind == "identity" else np.linalg.solve(fmap.matrix.T, v)
    norm, eps_est = float(np.linalg.norm(v)) or 1.0, 10.0 ** log_eps
    sent, got = _recorded_exam(approx_recover_sign, fmap, w, norm, eps_est)
    sent_ref, ref = _recorded_exam(reference_recover_sign, fmap, w, norm,
                                   eps_est)
    _assert_follows_reference(sent, got, sent_ref, ref, norm, eps_est, d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 50),
       map_kind=st.sampled_from(("identity", "unitary", "general")),
       start=st.sampled_from(("random", "zeros", "aligned")),
       seed=st.integers(0, 2 ** 32 - 1),
       norm=st.floats(0.5, 20.0),
       log_eps=st.floats(-9.0, -3.0))
@example(d=1, map_kind="identity", start="random", seed=1, norm=1.0,
         log_eps=-6.0)
@example(d=9, map_kind="identity", start="aligned", seed=2, norm=4.2,
         log_eps=-6.0)
@example(d=20, map_kind="unitary", start="zeros", seed=3, norm=20.0,
         log_eps=-9.0)
@example(d=50, map_kind="general", start="random", seed=4, norm=0.5,
         log_eps=-3.0)
def test_cold_exam_query_count_is_answer_free(d, map_kind, start, seed, norm,
                                              log_eps):
    # every halving halves a bracket whatever the answer, so the count
    # follows from d, the norm and eps_est alone
    gen = np.random.default_rng(seed)
    fmap = random_map(d, map_kind, seed)
    v = _student_image(d, start, gen)
    assume(np.any(v))  # "zeros" can zero every coordinate
    v *= norm / np.linalg.norm(v)
    w = v if map_kind == "identity" else np.linalg.solve(fmap.matrix.T, v)
    true_v = conjugate_apply(fmap, w)
    norm, eps_est = float(np.linalg.norm(true_v)), 10.0 ** log_eps
    _, got = _recorded_exam(approx_recover_sign, fmap, w, norm, eps_est)
    assert got.queries_used == _cold_exam_queries(d, norm, eps_est)
    err = float(np.linalg.norm(got.v_hat - true_v))
    assert err <= got.est_error() <= eps_est


def _far_prior_and_target(d, gen):
    """A prior whose target sits at chart coordinates +-sqrt(d - 1) / 2.

    Galloping brackets them inside the cold chart's bound.  From d = 22
    on, the brackets reach adjacent floats while their certificate is
    still above the 1e-15 floor, so a tiny eps_est ends the bisection
    there.
    """
    prior = gen.standard_normal(d)
    alpha0 = prior / np.linalg.norm(prior)
    p = 0.5 * math.sqrt(d - 1) * np.where(gen.random(d - 1) < 0.5, -1.0, 1.0)
    return prior, alpha0 + _tangent_frame(alpha0) @ p


def _recorded_warm(search, fmap, w, norm, eps_est, prior, radius):
    """Run one warm search; returns its queries' bytes, result, spent."""
    remote = RemoteLearner(LearnerState(w=w, eta=0.1, loss="square",
                                        feedback="sign"), fmap)
    sent = []

    def oracle(q):
        sent.append(np.asarray(q, dtype=np.float64).tobytes())
        return remote.query(q)

    result, spent = search(oracle, fmap.d, norm, eps_est, prior, radius)
    assert spent == len(sent) == remote.query_samples
    return sent, result, spent


def _assert_same_exam(got, ref):
    assert got.queries_used == ref.queries_used
    assert _bits(got.v_hat) == _bits(ref.v_hat)
    assert _bits(got.angle_bound) == _bits(ref.angle_bound)
    assert len(got.alpha_history) == len(ref.alpha_history)
    for a, b in zip(got.alpha_history, ref.alpha_history):
        assert _bits(a) == _bits(b)
    assert got.known_norm == ref.known_norm


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(2, 50),
       map_kind=st.sampled_from(("identity", "unitary", "general")),
       prior_kind=st.sampled_from(_PRIORS + ("far",)),
       seed=st.integers(0, 2 ** 32 - 1),
       log_eps=st.floats(-16.0, -2.0),
       log_radius=st.floats(-8.0, 0.0))
@example(d=2, map_kind="identity", prior_kind="orthogonal", seed=1,
         log_eps=-6.0, log_radius=-2.0)
@example(d=50, map_kind="general", prior_kind="pinned", seed=2,
         log_eps=-12.0, log_radius=-8.0)
@example(d=20, map_kind="unitary", prior_kind="exact", seed=3,
         log_eps=-12.0, log_radius=0.0)
@example(d=20, map_kind="general", prior_kind="antipodal", seed=4,
         log_eps=-6.0, log_radius=-2.0)
@example(d=30, map_kind="identity", prior_kind="zeros", seed=5,
         log_eps=-9.0, log_radius=-3.0)
@example(d=20, map_kind="unitary", prior_kind="near", seed=6,
         log_eps=-2.0, log_radius=-4.0)
# the widest bracket runs out of floats before the certificate floor
@example(d=50, map_kind="unitary", prior_kind="far", seed=7,
         log_eps=-16.0, log_radius=-3.0)
def test_warm_search_matches_reference_byte_for_byte(d, map_kind, prior_kind,
                                                     seed, log_eps,
                                                     log_radius):
    gen = np.random.default_rng(seed)
    fmap = random_map(d, map_kind, seed)
    prior, v = (_far_prior_and_target(d, gen) if prior_kind == "far"
                else _prior_and_target(prior_kind, d, gen))
    # the student's weights w solve G^T w = v
    w = v if map_kind == "identity" else np.linalg.solve(fmap.matrix.T, v)
    norm = float(np.linalg.norm(v))
    eps_est = 10.0 ** log_eps * norm
    radius = 10.0 ** log_radius
    if prior is None:
        # a cold exam has no warm search: check the whole exam instead
        sent, got = _recorded_exam(
            lambda o, dim, n, eps: approx_recover_sign(o, dim, n, eps,
                                                       prior=None,
                                                       radius=radius),
            fmap, w, norm, eps_est)
        sent_ref, ref = _recorded_exam(reference_recover_sign, fmap, w, norm,
                                       eps_est)
        _assert_follows_reference(sent, got, sent_ref, ref, norm, eps_est, d)
        return
    sent, got = _recorded_exam(
        lambda o, dim, n, eps: approx_recover_sign(o, dim, n, eps,
                                                   prior=prior,
                                                   radius=radius),
        fmap, w, norm, eps_est)
    sent_ref, ref, _ = _recorded_warm(reference_warm_sign_search, fmap, w,
                                      norm, eps_est, prior, radius)
    if ref is not None:
        assert sent == sent_ref
        _assert_same_exam(got, ref)
        return
    # the warm attempt failed: its queries, then the cold exam's
    sent_cold, cold = _recorded_exam(approx_recover_sign, fmap, w, norm,
                                     eps_est)
    assert sent == sent_ref + sent_cold
    assert got.queries_used == len(sent_ref) + cold.queries_used
    assert _bits(got.v_hat) == _bits(cold.v_hat)


@given(map_kind=st.sampled_from(("identity", "unitary", "general")),
       prior_kind=st.sampled_from(_PRIORS),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_one_dimensional_exam_ignores_its_prior(map_kind, prior_kind, seed):
    # d = 1 has no chart coordinates: the exam is the cold one, a single
    # query e_1, whatever prior the caller holds
    gen = np.random.default_rng(seed)
    fmap = random_map(1, map_kind, seed)
    v = gen.standard_normal(1)
    prior = {"cold": None, "exact": v, "antipodal": -v,
             "orthogonal": np.zeros(1)}.get(prior_kind, v + 0.1)
    w = v if map_kind == "identity" else np.linalg.solve(fmap.matrix.T, v)
    norm, eps_est = float(np.linalg.norm(v)), 1e-6
    sent, got = _recorded_exam(
        lambda o, dim, n, eps: approx_recover_sign(o, dim, n, eps,
                                                   prior=prior, radius=0.1),
        fmap, w, norm, eps_est)
    sent_cold, cold = _recorded_exam(approx_recover_sign, fmap, w, norm,
                                     eps_est)
    sent_ref, ref = _recorded_exam(reference_recover_sign, fmap, w, norm,
                                   eps_est)
    assert sent == sent_cold == sent_ref == [np.ones(1).tobytes()]
    _assert_same_exam(got, cold)
    _assert_same_exam(got, ref)
    assert got.angle_bound == 0.0 and len(got.alpha_history) == 1
