import numpy as np
import pytest

from teachsim.exam import (ExamResult, RankDeficientError, RecoveryConfig,
                           RemoteLearner, approx_recover_sign,
                           construct_virtual_learner, estimate_learning_rate,
                           exact_recover_bijective, exact_recover_hinge,
                           make_basis_queries, make_paired_queries)
from teachsim.feature_space import conjugate_apply, random_map
from teachsim.learners import LearnerState, SaturationError


def _remote(w, feedback, fmap, eta=1e-3, loss="square"):
    if loss in ("logistic", "hinge") or feedback == "sign":
        loss = "logistic" if loss == "square" else loss
    st = LearnerState(w=np.asarray(w, dtype=np.float64), eta=eta, loss=loss,
                      feedback=feedback)
    return RemoteLearner(st, fmap)


def test_basis_queries_shape_and_conditioning():
    qs = make_basis_queries(6, seed=0)
    assert qs.matrix.shape == (6, 6) and qs.kind == "basis_d"
    assert len(qs) == 6
    sv = np.linalg.svd(qs.matrix, compute_uv=False)
    assert sv[-1] > 1e-8
    np.testing.assert_array_equal(make_basis_queries(6, seed=0).matrix,
                                  qs.matrix)
    std = make_basis_queries(4, seed=0, standard=True)
    np.testing.assert_array_equal(std.matrix, np.eye(4))


def test_paired_queries_interleave_sign_flips():
    qs = make_paired_queries(3, seed=1)
    assert qs.matrix.shape == (6, 3) and qs.kind == "paired_2d"
    np.testing.assert_array_equal(qs.matrix[1::2], -qs.matrix[0::2])


def test_exact_recover_identity_is_the_adjoint_image():
    gen = np.random.default_rng(0)
    for trial in range(20):
        d = int(gen.integers(1, 12))
        fmap = random_map(d, "general", trial)
        w = gen.standard_normal(d)
        rem = _remote(w, "identity", fmap)
        qs = make_basis_queries(d, seed=trial)
        responses = np.array([rem.query(q) for q in qs.matrix])
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
        responses = np.array([rem.query(q) for q in qs.matrix])
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
        qs = make_paired_queries(d, seed=trial)
        responses = np.array([rem.query(q) for q in qs.matrix])
        res = exact_recover_hinge(qs, responses)
        np.testing.assert_allclose(res.v_hat, conjugate_apply(fmap, w),
                                   rtol=0, atol=1e-8)


def test_recover_rejects_rank_deficient_queries():
    from teachsim.exam import QuerySet
    mat = np.array([[1.0, 0.0], [2.0, 0.0]])
    qs = QuerySet(matrix=mat, kind="basis_d")
    with pytest.raises(RankDeficientError):
        exact_recover_bijective(qs, np.array([1.0, 2.0]), "identity")


def test_hinge_recovery_rejects_negative_responses():
    qs = make_paired_queries(2, seed=0)
    bad = np.array([1.0, -0.5, 0.3, 0.0])
    with pytest.raises(ValueError, match="negative"):
        exact_recover_hinge(qs, bad)


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
                             query_seed=trial, contraction_rho=rho,
                             max_rounds=40)
        res = approx_recover_sign(_sign_oracle_for(v), d, cfg)
        sines = [_sin_angle(np.asarray(a), v) for a in res.alpha_history]
        for k, s in enumerate(sines):
            assert s <= rho ** k * sines[0] + 1e-12, (
                f"round {k}: sin {s:.3e} > {rho ** k * sines[0]:.3e}")


def test_sign_recovery_exact_alignment_pins_immediately():
    # target exactly on the first-shot direction: no refinement rounds,
    # measured angle zero, certified bound down at the pin width
    d = 9
    signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0])
    v = 4.2 * signs / np.sqrt(d)
    cfg = RecoveryConfig(known_norm=4.2, query_seed=0)
    res = approx_recover_sign(_sign_oracle_for(v), d, cfg)
    assert len(res.alpha_history) == 1  # only the anchor, zero rounds
    assert _sin_angle(res.v_hat, v) == 0.0
    assert res.angle_bound <= 1e-12
    np.testing.assert_allclose(res.v_hat, v, rtol=0, atol=1e-12)


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


def test_exam_query_counts_by_feedback():
    gen = np.random.default_rng(6)
    d = 5
    fmap = random_map(d, "unitary", 2)
    w = gen.standard_normal(d) / 3.0
    for feedback, loss, expected in (("identity", "square", d),
                                     ("sigmoid", "logistic", d),
                                     ("hinge_value", "hinge", 2 * d)):
        rem = _remote(w, feedback, fmap, loss=loss)
        res = construct_virtual_learner(rem, RecoveryConfig(query_seed=1))
        assert res.queries_used == expected


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


def test_exam_result_est_error_forms():
    r1 = ExamResult(v_hat=np.ones(2), queries_used=2, kind="exact_basis",
                    residual=1e-10)
    assert r1.est_error() == 1e-10
    r2 = ExamResult(v_hat=np.ones(2), queries_used=5, kind="approx_sign",
                    angle_bound=1e-3, known_norm=2.0)
    np.testing.assert_allclose(r2.est_error(), 2e-3)
