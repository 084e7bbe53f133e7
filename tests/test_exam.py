import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import teachsim.exam
from teachsim.exam import (ExamResult, RankDeficientError, RecoveryConfig,
                           RemoteLearner, _tangent_frame, approx_recover_sign, construct_virtual_learner,
                           estimate_learning_rate, exact_recover_bijective,
                           make_basis_queries)
from teachsim.feature_space import apply_map, conjugate_apply, random_map
from teachsim.learners import (FEEDBACKS, LearnerState, SaturationError,
                               respond)


def _remote(w, feedback, fmap, eta=1e-3, loss="square"):
    if loss in ("logistic", "hinge") or feedback == "sign":
        loss = "logistic" if loss == "square" else loss
    st = LearnerState(w=np.asarray(w, dtype=np.float64), eta=eta, loss=loss,
                      feedback=feedback)
    return RemoteLearner(st, fmap)


def test_basis_queries_shape_and_conditioning():
    qs = make_basis_queries(6, seed=0)
    assert qs.shape == (6, 6) and not qs.flags.writeable
    sv = np.linalg.svd(qs, compute_uv=False)
    assert sv[-1] > 1e-8
    np.testing.assert_array_equal(make_basis_queries(6, seed=0), qs)
    std = make_basis_queries(4, seed=0, standard=True)
    np.testing.assert_array_equal(std, np.eye(4))
    assert not std.flags.writeable


def test_exact_recover_identity_is_the_adjoint_image():
    gen = np.random.default_rng(0)
    for trial in range(20):
        d = int(gen.integers(1, 12))
        fmap = random_map(d, "general", trial)
        w = gen.standard_normal(d)
        rem = _remote(w, "identity", fmap)
        qs = make_basis_queries(d, seed=trial)
        responses = np.array([rem.query(q) for q in qs])
        res = exact_recover_bijective(qs, responses, "identity")
        np.testing.assert_allclose(res.v_hat, conjugate_apply(fmap, w),
                                   rtol=0, atol=1e-8)
        assert res.queries_used == d
        assert res.est_error() <= 1e-8


def test_exact_recover_sigmoid_inverts_the_channel():
    gen = np.random.default_rng(1)
    for trial in range(20):
        d = int(gen.integers(1, 12))
        fmap = random_map(d, "unitary", trial)
        w = gen.standard_normal(d)
        w /= np.linalg.norm(w)
        rem = _remote(w, "sigmoid", fmap, loss="logistic")
        qs = make_basis_queries(d, seed=100 + trial)
        responses = np.array([rem.query(q) for q in qs])
        res = exact_recover_bijective(qs, responses, "sigmoid")
        np.testing.assert_allclose(res.v_hat, conjugate_apply(fmap, w),
                                   rtol=0, atol=1e-8)


def test_exact_recover_hinge_uses_paired_probes():
    gen = np.random.default_rng(2)
    for trial in range(20):
        d = int(gen.integers(1, 12))
        fmap = random_map(d, "unitary", trial)
        w = gen.standard_normal(d)
        rem = _remote(w, "hinge_value", fmap, loss="hinge")
        sent = []
        query = rem.query

        def recording_query(x):
            sent.append(np.array(x))
            return query(x)

        rem.query = recording_query
        res = construct_virtual_learner(rem, RecoveryConfig(query_seed=trial))
        np.testing.assert_allclose(res.v_hat, conjugate_apply(fmap, w),
                                   rtol=0, atol=1e-8)
        # q_1, -q_1, q_2, -q_2, ...
        qs = make_basis_queries(d, seed=trial)
        np.testing.assert_array_equal(np.array(sent[0::2]), qs)
        np.testing.assert_array_equal(np.array(sent[1::2]), -qs)
        assert res.queries_used == rem.query_samples == 2 * d


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 50),
       map_kind=st.sampled_from(["identity", "unitary", "general"]),
       standard=st.booleans(),
       zeros=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 16))
@example(d=7, map_kind="identity", standard=True, zeros=0.5, seed=0)
@example(d=1, map_kind="identity", standard=True, zeros=1.0, seed=1)
@example(d=50, map_kind="general", standard=False, zeros=0.0, seed=2)
def test_hinge_exam_is_the_identity_exam_on_pairs(d, map_kind, standard,
                                                  zeros, seed):
    # with the identity map and standard queries, a zero coordinate of w
    # makes the answers to q and -q both exactly 0
    gen = np.random.default_rng(seed)
    fmap = random_map(d, map_kind, seed)
    w = gen.standard_normal(d)
    w[gen.random(d) < zeros] = 0.0
    cfg = RecoveryConfig(query_seed=seed, standard_queries=standard)
    ident = construct_virtual_learner(_remote(w, "identity", fmap), cfg)
    rem = _remote(w, "hinge_value", fmap, loss="hinge")
    hinge = construct_virtual_learner(rem, cfg)
    v = conjugate_apply(fmap, w)
    tol = 1e-12 * (1.0 + float(np.linalg.norm(v)))
    assert float(np.max(np.abs(hinge.v_hat - ident.v_hat))) <= tol
    assert hinge.queries_used == rem.query_samples == 2 * d


def test_every_exact_exam_goes_through_one_solver(monkeypatch):
    # perfbench/tracer.py rebinds these module globals to time them, so
    # exam.exact_recover_bijective.ms covers every exact exam only while
    # construct_virtual_learner reaches them by name
    import teachsim.exam as exam
    calls = []

    def counting(name):
        fn = getattr(exam, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("exact_recover_bijective", "approx_recover_sign"):
        monkeypatch.setattr(exam, name, counting(name))
    fmap = random_map(5, "general", 0)
    w = np.random.default_rng(0).standard_normal(5)
    for feedback, loss, expected in (
            ("identity", "square", "exact_recover_bijective"),
            ("sigmoid", "logistic", "exact_recover_bijective"),
            ("hinge_value", "hinge", "exact_recover_bijective"),
            ("sign", "logistic", "approx_recover_sign")):
        rem = _remote(w, feedback, fmap, loss=loss)
        cfg = RecoveryConfig(query_seed=1, known_norm=1.0)
        for _ in range(2):
            calls.clear()
            construct_virtual_learner(rem, cfg)
            assert calls == [expected], feedback


def test_recover_rejects_rank_deficient_queries():
    mat = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(RankDeficientError):
        exact_recover_bijective(mat, np.array([1.0, 2.0]), "identity")


def test_sigmoid_saturation_raises():
    fmap = random_map(4, "identity", 0)
    rem = _remote(1e9 * np.ones(4), "sigmoid", fmap, loss="logistic")
    with pytest.raises(SaturationError):
        construct_virtual_learner(rem, RecoveryConfig(query_seed=0))


def test_sigmoid_est_error_bounds_a_saturating_learner():
    # |<v, q>| reaches the 30s on Gaussian queries: the responses lie
    # within 1e-12 of 1, their rounding is amplified by 1 / (r (1 - r))
    # and the clamp of feedback_invert moves them further, so the solve
    # residual alone certifies a badly wrong learner
    fmap = random_map(8, "identity", 0)
    w = np.random.default_rng(0).standard_normal(8)
    w *= 15.0 / np.linalg.norm(w)
    rem = _remote(w, "sigmoid", fmap, loss="logistic")
    res = construct_virtual_learner(rem, RecoveryConfig(query_seed=0))
    err = float(np.linalg.norm(res.v_hat - conjugate_apply(fmap, w)))
    assert err > 1.0 and res.residual < 1e-12
    assert err <= res.est_error()


def _sign_oracle_for(v):
    v = np.asarray(v, dtype=np.float64)

    def oracle(x):
        return 1.0 if float(v @ x) >= 0 else -1.0

    return oracle


def _sin_angle(a, b):
    c = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.sqrt(max(0.0, 1.0 - min(1.0, abs(c)) ** 2)))


def test_sign_recovery_one_dimension_is_exact():
    cfg = RecoveryConfig(known_norm=2.5, query_seed=0)
    res = approx_recover_sign(_sign_oracle_for([-3.0]), 1, cfg)
    np.testing.assert_array_equal(res.v_hat, [-2.5])
    assert res.queries_used == 1
    assert res.angle_bound == 0.0


def test_sign_recovery_requires_known_norm():
    with pytest.raises(ValueError, match="known_norm"):
        approx_recover_sign(_sign_oracle_for([1.0, 2.0]), 2,
                            RecoveryConfig(query_seed=0))


def test_sign_recovery_direction_and_error_bound():
    gen = np.random.default_rng(3)
    for trial in range(10):
        d = int(gen.integers(2, 20))
        v = gen.standard_normal(d)
        norm = float(np.linalg.norm(v))
        cfg = RecoveryConfig(eps_est=1e-5, known_norm=norm, query_seed=trial)
        res = approx_recover_sign(_sign_oracle_for(v), d, cfg)
        err = float(np.linalg.norm(res.v_hat - v))
        # honest bound: measured error within the certified estimate
        assert err <= res.est_error() + 1e-12
        assert _sin_angle(res.v_hat, v) <= res.angle_bound + 1e-12
        np.testing.assert_allclose(np.linalg.norm(res.v_hat), norm,
                                   rtol=1e-12)


def test_sign_recovery_round_contraction_certificate():
    # each refinement round shrinks the angle by the configured factor,
    # measured against the true direction via the recorded round history
    gen = np.random.default_rng(4)
    rho = 0.8
    for trial in range(8):
        d = int(gen.integers(2, 16))
        v = gen.standard_normal(d)
        cfg = RecoveryConfig(eps_est=1e-9, known_norm=float(np.linalg.norm(v)),
                             query_seed=trial)
        res = approx_recover_sign(_sign_oracle_for(v), d, cfg)
        sines = [_sin_angle(np.asarray(a), v) for a in res.alpha_history]
        for k, s in enumerate(sines):
            assert s <= rho ** k * sines[0] + 1e-12, (
                f"round {k}: sin {s:.3e} > {rho ** k * sines[0]:.3e}")


def _cold_exam_queries(d, norm, eps_est):
    """The queries of a cold sign exam, from bracket widths alone.

    d sign queries, then one per halving: d - 1 brackets start at width
    2 sqrt(d - 1), and the widest (the lowest index on ties) is halved
    until norm * 2 * ||half-widths|| <= eps_est or ||half-widths||
    <= 1e-15.
    """
    half = np.full(d - 1, math.sqrt(d - 1))
    halvings = 0
    while True:
        err = math.sqrt(half.dot(half))
        if norm * 2.0 * err <= eps_est or err <= 1e-15:
            return d + halvings
        half[int(half.argmax())] *= 0.5
        halvings += 1


def test_sign_recovery_certifies_an_aligned_student():
    # target exactly on the first-shot direction: every chart coordinate
    # is zero, and the exam bisects to its target like any other, with
    # no checkpoint passed on the way
    d = 9
    signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0])
    v = 4.2 * signs / np.sqrt(d)
    cfg = RecoveryConfig(known_norm=4.2, query_seed=0)
    res = approx_recover_sign(_sign_oracle_for(v), d, cfg)
    assert res.queries_used == _cold_exam_queries(d, 4.2, cfg.eps_est) == 218
    assert len(res.alpha_history) == 1
    assert float(np.linalg.norm(res.v_hat - v)) <= res.est_error()
    assert res.est_error() <= cfg.eps_est


def test_sign_recovery_scale_invariance():
    # the sign oracle cannot see scale: tripling the target and the
    # disclosed norm reproduces the same direction estimates exactly
    gen = np.random.default_rng(8)
    v = gen.standard_normal(6)
    norm = float(np.linalg.norm(v))
    cfg1 = RecoveryConfig(eps_est=1e-7, known_norm=norm, query_seed=2)
    cfg3 = RecoveryConfig(eps_est=3e-7, known_norm=3 * norm, query_seed=2)
    res1 = approx_recover_sign(_sign_oracle_for(v), 6, cfg1)
    res3 = approx_recover_sign(_sign_oracle_for(3.0 * v), 6, cfg3)
    assert res1.queries_used == res3.queries_used
    assert len(res1.alpha_history) == len(res3.alpha_history)
    for a, b in zip(res1.alpha_history, res3.alpha_history):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
    np.testing.assert_allclose(res3.v_hat, 3.0 * res1.v_hat, rtol=1e-15)


_PRIORS = ("cold", "exact", "near", "antipodal", "orthogonal", "zeros",
           "pinned")


def _prior_and_target(kind, d, gen):
    """(prior or None, teacher-space target v) for one prior kind.

    "zeros" zeroes about a third of a near prior's coordinates.
    "pinned" builds the target on the prior's own chart with about half
    of its chart coordinates exactly zero.
    """
    v = gen.standard_normal(d)
    noise = gen.standard_normal(d) / np.sqrt(d)
    if kind == "pinned":
        alpha0 = v / np.linalg.norm(v)
        p = 0.05 * noise[:d - 1]
        p[gen.random(d - 1) < 0.5] = 0.0
        return v, alpha0 + _tangent_frame(alpha0) @ p
    prior = {"cold": None, "exact": v, "antipodal": -v,
             "near": v + 0.02 * np.linalg.norm(v) * noise,
             "zeros": v + 0.02 * np.linalg.norm(v) * noise,
             "orthogonal": noise - (noise @ v) / (v @ v) * v}[kind]
    if kind == "zeros":
        prior[gen.random(d) < 0.35] = 0.0
    return prior, v


def _sine(a, b):
    """sin(angle(a, b)) from the part of a orthogonal to b; unlike
    sqrt(1 - cos^2) it keeps its precision at tiny angles."""
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return float(np.linalg.norm(a - (a @ b) * b))


def _sign_remote(w, fmap):
    return RemoteLearner(LearnerState(w=w, eta=0.1, loss="square",
                                      feedback="sign"), fmap)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.integers(2, 50),
       map_kind=st.sampled_from(("identity", "unitary", "general")),
       prior_kind=st.sampled_from(_PRIORS),
       seed=st.integers(0, 2 ** 32 - 1),
       log_eps=st.floats(-12.0, -2.0),
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
def test_sign_exam_error_within_its_certificate(d, map_kind, prior_kind,
                                                seed, log_eps, log_radius):
    gen = np.random.default_rng(seed)
    fmap = random_map(d, map_kind, seed)
    prior, v = _prior_and_target(prior_kind, d, gen)
    # the student's weights w solve G^T w = v
    w = v if map_kind == "identity" else np.linalg.solve(fmap.matrix.T, v)
    true_v = conjugate_apply(fmap, w)
    norm = float(np.linalg.norm(true_v))
    cfg = RecoveryConfig(eps_est=10.0 ** log_eps * norm, known_norm=norm)
    radius = 10.0 ** log_radius
    rem = _sign_remote(w, fmap)
    res = construct_virtual_learner(rem, cfg, prior=prior, radius=radius)
    assert res.queries_used == rem.query_samples
    err = float(np.linalg.norm(res.v_hat - true_v))
    assert err <= res.est_error() + 1e-12 * norm
    assert _sine(res.v_hat, true_v) <= res.angle_bound + 1e-12
    # every exam, cold or warm, certifies the eps_est target
    assert norm * 2.0 * res.angle_bound <= cfg.eps_est
    if prior is None:
        return
    # a warm exam anchors at the prior; one whose prior cannot anchor
    # the chart runs the cold exam after its own queries
    scale = np.linalg.norm(prior)
    warm = scale > 0 and np.array_equal(res.alpha_history[0], prior / scale)
    if warm:
        assert len(res.alpha_history) == 2
    else:
        # a prior without a direction spends nothing
        cold = construct_virtual_learner(_sign_remote(w, fmap), cfg)
        assert res.queries_used >= cold.queries_used
        np.testing.assert_array_equal(res.v_hat, cold.v_hat)
    if prior_kind in ("antipodal", "orthogonal"):
        assert not warm


@pytest.mark.parametrize("key", ("eps_est", "known_norm"))
@pytest.mark.parametrize("bad", (0.0, -1.0, float("nan"), float("inf")))
def test_recovery_config_rejects_non_positive_or_non_finite(key, bad):
    # a NaN eps_est would let the sign search run to the float floor
    with pytest.raises(ValueError, match=key):
        RecoveryConfig(**{key: bad})


def test_sign_exam_prior_needs_a_radius():
    cfg = RecoveryConfig(known_norm=1.0)
    oracle = _sign_oracle_for([1.0, 2.0])
    with pytest.raises(ValueError, match="radius"):
        approx_recover_sign(oracle, 2, cfg, prior=np.ones(2))
    # a prior without a direction leaves the exam cold
    zero = approx_recover_sign(oracle, 2, cfg, prior=np.zeros(2),
                               radius=0.1)
    cold = approx_recover_sign(oracle, 2, cfg)
    assert zero.queries_used == cold.queries_used
    np.testing.assert_array_equal(zero.v_hat, cold.v_hat)


def _sign_probe_case(case, d, gen):
    """(prior, teacher-space target v) of one sign-exam path.

    "cold": no prior.  "warm": a prior 1e-3 off the target.  "fallback":
    a prior at 1e-3 radians from orthogonal to the target, which passes
    the anchor check but puts every chart coordinate near 1e3, past the
    gallop's cap, so the cold exam runs after all.  "pinned": a target
    on its own sign pattern, every chart coordinate of the cold exam
    exactly zero.
    """
    v = gen.standard_normal(d)
    if case == "pinned":
        return None, np.where(v >= 0, 1.0, -1.0)
    if case == "cold":
        return None, v
    if case == "warm":
        return v + 1e-3 * np.linalg.norm(v) * gen.standard_normal(d), v
    noise = gen.standard_normal(d)
    orthogonal = noise - (noise @ v) / (v @ v) * v
    orthogonal *= np.linalg.norm(v) / np.linalg.norm(orthogonal)
    return orthogonal + 1e-3 * v, v


@pytest.mark.parametrize("case", ("cold", "warm", "fallback", "pinned"))
@pytest.mark.parametrize("map_kind", ("identity", "general"))
def test_each_sign_probe_is_one_remote_query(monkeypatch, case, map_kind):
    # the benchmark tracer counts RemoteLearner.query calls and checks
    # them against query_samples, so a sign exam must ask every probe
    # through exactly one query call; on the identity map no probe may
    # need the product I x (RemoteLearner.query answers it from one ddot)
    calls, products = [0], [0]
    query = RemoteLearner.query
    product = teachsim.exam.apply_map

    def counted(self, x):
        calls[0] += 1
        return query(self, x)

    def counted_product(fmap, x):
        products[0] += 1
        return product(fmap, x)

    monkeypatch.setattr(RemoteLearner, "query", counted)
    monkeypatch.setattr(teachsim.exam, "apply_map", counted_product)
    d = 12
    gen = np.random.default_rng(7)
    fmap = random_map(d, map_kind, 7)
    prior, v = _sign_probe_case(case, d, gen)
    w = v if map_kind == "identity" else np.linalg.solve(fmap.matrix.T, v)
    cfg = RecoveryConfig(eps_est=1e-6, known_norm=float(np.linalg.norm(v)))
    remote = _sign_remote(w, fmap)
    res = construct_virtual_learner(remote, cfg, prior=prior, radius=1e-3)
    assert calls[0] == res.queries_used == remote.query_samples
    assert products[0] == (0 if map_kind == "identity" else calls[0])
    # and the exam took the path its case names
    calls[0] = products[0] = 0
    cold = construct_virtual_learner(_sign_remote(w, fmap), cfg)
    assert calls[0] == cold.queries_used
    assert products[0] == (0 if map_kind == "identity" else calls[0])
    if case == "warm":
        assert res.queries_used < cold.queries_used
        assert len(res.alpha_history) == 2
    elif case == "fallback":
        assert res.queries_used > cold.queries_used + 1
        np.testing.assert_array_equal(res.v_hat, cold.v_hat)
    elif case == "pinned":
        assert res.queries_used == _cold_exam_queries(d, cfg.known_norm,
                                                      cfg.eps_est)
        assert len(res.alpha_history) == 1


def test_construct_virtual_learner_all_feedbacks():
    gen = np.random.default_rng(5)
    d = 7
    fmap = random_map(d, "unitary", 9)
    w = gen.standard_normal(d)
    w /= np.linalg.norm(w)
    true_v = conjugate_apply(fmap, w)
    for feedback, loss in (("identity", "square"), ("sigmoid", "logistic"),
                           ("hinge_value", "hinge"), ("sign", "logistic")):
        rem = _remote(w, feedback, fmap, loss=loss)
        cfg = RecoveryConfig(query_seed=3, eps_est=1e-6,
                             known_norm=float(np.linalg.norm(true_v)))
        res = construct_virtual_learner(rem, cfg)
        tol = 1e-8 if feedback != "sign" else 1e-5
        np.testing.assert_allclose(res.v_hat, true_v, rtol=0, atol=tol)
        assert rem.query_samples == res.queries_used
        assert rem.teaching_samples == 0  # exams never teach
        assert rem.white_box_reads == 0  # or peek at the weights


def test_exam_query_counts_by_feedback(monkeypatch):
    # as for the sign probes, the benchmark tracer checks RemoteLearner
    # .query calls against query_samples: every exact-exam query is one
    # call too
    calls = [0]
    query = RemoteLearner.query

    def counted(self, x):
        calls[0] += 1
        return query(self, x)

    monkeypatch.setattr(RemoteLearner, "query", counted)
    gen = np.random.default_rng(6)
    d = 5
    fmap = random_map(d, "unitary", 2)
    w = gen.standard_normal(d) / 3.0
    for feedback, loss, expected in (("identity", "square", d),
                                     ("sigmoid", "logistic", d),
                                     ("hinge_value", "hinge", 2 * d)):
        calls[0] = 0
        rem = _remote(w, feedback, fmap, loss=loss)
        res = construct_virtual_learner(rem, RecoveryConfig(query_seed=1))
        assert res.queries_used == expected
        assert calls[0] == rem.query_samples == expected


def test_estimate_learning_rate_exact_budget_and_accuracy():
    gen = np.random.default_rng(7)
    for loss, feedback in (("square", "identity"), ("logistic", "sigmoid"),
                           ("hinge", "hinge_value")):
        for trial in range(5):
            d = int(gen.integers(2, 10))
            fmap = random_map(d, "unitary", trial)
            w = gen.standard_normal(d)
            w /= np.linalg.norm(w)
            eta = float(gen.uniform(1e-5, 1e-2))
            st = LearnerState(w=w, eta=eta, loss=loss, feedback=feedback)
            rem = RemoteLearner(st, fmap)
            est = estimate_learning_rate(rem, seed=trial)
            np.testing.assert_allclose(est, eta, rtol=1e-6)
            m = 2 * d if feedback == "hinge_value" else d
            assert rem.query_samples + rem.teaching_samples == 2 * m + 1


def test_estimate_learning_rate_frozen_student_reports_zero():
    fmap = random_map(4, "identity", 0)
    st = LearnerState(w=np.array([0.3, -0.2, 0.5, 0.1]), eta=0.0,
                      loss="square", feedback="identity")
    est = estimate_learning_rate(RemoteLearner(st, fmap), seed=1)
    assert est == 0.0


def test_estimate_learning_rate_rejects_sign_feedback():
    fmap = random_map(3, "identity", 0)
    st = LearnerState(w=np.ones(3), eta=0.1, loss="logistic",
                      feedback="sign")
    with pytest.raises(ValueError, match="recoverable feedback"):
        estimate_learning_rate(RemoteLearner(st, fmap), seed=0)


def test_remote_learner_counters_and_teaching():
    fmap = random_map(3, "identity", 0)
    st = LearnerState(w=np.array([1.0, 0.0, 0.0]), eta=0.5, loss="square",
                      feedback="identity")
    rem = RemoteLearner(st, fmap)
    r = rem.query(np.array([1.0, 1.0, 0.0]))
    assert r == 1.0 and rem.query_samples == 1
    rem.teach(np.array([1.0, 0.0, 0.0]), 0.0)
    assert rem.teaching_samples == 1
    np.testing.assert_allclose(rem.state.w, [0.5, 0.0, 0.0])
    rem.observe_parameters()
    assert rem.white_box_reads == 1
    n = rem.disclosed_norm()
    assert rem.norm_disclosures == 1
    np.testing.assert_allclose(n, 0.5)


# Signed zeros and subnormals among plain and wide-ranging finite entries
_ENTRIES = st.one_of(st.floats(-10.0, 10.0),
                     st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310,
                                      -1e-310)),
                     st.floats(-1e150, 1e150))
# One entry of x may be replaced: +-1e300 overflows the prediction when
# its weight exceeds about 1.8e8, and inf or NaN entries make I x differ
# from x
_SPECIAL_ENTRIES = (1e300, -1e300, math.inf, -math.inf, math.nan)


def _answer_bits(answer):
    return struct.pack("<d", answer)


def _reference_query(remote, x):
    """The general query path: respond(state, apply_map(fmap, x))."""
    return respond(remote.state, apply_map(remote.fmap, x))


@st.composite
def _identity_query_cases(draw):
    d = draw(st.integers(1, 64))
    w = draw(st.lists(_ENTRIES, min_size=d, max_size=d))
    x = draw(st.lists(_ENTRIES, min_size=d, max_size=d))
    special = draw(st.one_of(st.none(), st.tuples(
        st.integers(0, d - 1), st.sampled_from(_SPECIAL_ENTRIES))))
    if special is not None:
        x[special[0]] = special[1]
    return w, x, draw(st.integers(0, 7))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_identity_query_cases())
@example(case=([1e300, 1e300], [1e300, 1e300], 1))
@example(case=([1.0, -1.0], [-0.0, -0.0], 0))
@example(case=([1.0], [math.inf], 3))
def test_identity_map_query_is_one_ddot_with_the_products_bits(case):
    # on an identity map a float64 vector is answered from <w, x> alone,
    # with the bits of the general path on every channel; a prediction
    # that is not finite (an overflow, or an inf or NaN entry, where
    # I x differs from x) is asked again on the general path.  x sits at
    # a given 8-byte offset of a larger buffer, in case the BLAS ddot
    # rounds differently on differently aligned vectors
    w, values, offset = case
    d = len(w)
    buf = np.zeros(d + 8)
    x = buf[offset:offset + d]
    x[:] = values
    fmap = random_map(d, "identity", 0)
    assert fmap.is_identity
    with np.errstate(over="ignore", invalid="ignore"):
        finite = math.isfinite(float(np.asarray(w).dot(x)))
    # a finite prediction implies a finite x
    assert not finite or np.all(np.isfinite(x))
    products = [0]

    def counted_product(fmap, x):
        products[0] += 1
        return apply_map(fmap, x)

    for feedback in FEEDBACKS:
        remote = RemoteLearner(LearnerState(w=w, eta=0.1, loss="square",
                                            feedback=feedback), fmap)
        products[0] = 0
        with pytest.MonkeyPatch.context() as patch, np.errstate(
                over="ignore", invalid="ignore"):
            expected = _reference_query(remote, x)
            patch.setattr(teachsim.exam, "apply_map", counted_product)
            answer = remote.query(x)
        assert _answer_bits(answer) == _answer_bits(expected), feedback
        assert products[0] == (0 if finite else 1)
        assert remote.query_samples == 1
        if not np.all(np.isfinite(x)):
            assert products[0] == 1


@pytest.mark.parametrize("layout", ("list", "int", "float32", "strided",
                                    "reversed", "row", "column", "square",
                                    "short", "long"))
def test_identity_map_query_of_any_other_input_answers_as_before(layout):
    # inputs off the fast path answer, or raise the same ValueError, as
    # the general path does
    d = 5
    gen = np.random.default_rng(17)
    w = gen.standard_normal(d)
    values = gen.integers(-3, 4, size=d)
    buf = np.zeros(2 * d)
    buf[::2] = values
    x = {"list": [float(v) for v in values],
         "int": values,
         "float32": values.astype(np.float32),
         "strided": buf[::2],
         "reversed": values[::-1].astype(np.float64)[::-1],
         "row": values[None, :].astype(np.float64),
         "column": values[:, None].astype(np.float64),
         "square": np.tile(values.astype(np.float64), (d, 1)),
         "short": values[:-1].astype(np.float64),
         "long": np.append(values, 1.0)}[layout]
    fmap = random_map(d, "identity", 0)
    for feedback in FEEDBACKS:
        remote = RemoteLearner(LearnerState(w=w, eta=0.1, loss="square",
                                            feedback=feedback), fmap)
        try:
            expected = ("answer", _answer_bits(_reference_query(remote, x)))
        except ValueError as exc:
            expected = ("error", str(exc))
        try:
            got = ("answer", _answer_bits(remote.query(x)))
        except ValueError as exc:
            got = ("error", str(exc))
        assert got == expected, (layout, feedback)
        assert (got[0] == "error") == (layout in ("row", "column", "square",
                                                  "short", "long"))


def test_exam_result_est_error_forms():
    r1 = ExamResult(v_hat=np.ones(2), queries_used=2, kind="exact_basis",
                    residual=1e-10)
    assert r1.est_error() == 1e-10
    r2 = ExamResult(v_hat=np.ones(2), queries_used=5, kind="approx_sign",
                    angle_bound=1e-3, known_norm=2.0)
    # norm * 2 * angle_bound: the chord bound the sign search stops on
    np.testing.assert_allclose(r2.est_error(), 4e-3)
