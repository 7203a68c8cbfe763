import numpy as np
import pytest

from shapescene.errors import MismatchedLengths
from shapescene.geom import (Pose9DoF, apply_pose, chain_rotation_grad,
                             project_to_so3, random_rotation)
from shapescene.losses import (
    hard_selection_grad,
    hard_selection_loss,
    pose_loss_rt,
    pose_loss_world_grads,
    scale_loss,
    scale_loss_grad,
    soft_selection_grad,
    soft_selection_loss,
)


def _softmax_ce_oracle(z, t):
    p = np.exp(z) / np.exp(z).sum()
    return -float(np.sum(t * np.log(p)))


def _random_pose(rng, scale_spread=0.3):
    return Pose9DoF(random_rotation(rng), rng.normal(size=3),
                    np.exp(rng.normal(size=3) * scale_spread))


def test_hard_selection_uniform():
    z = np.zeros(300)
    t = np.zeros(300)
    t[17] = 1.0
    assert abs(hard_selection_loss([z], [t]) - np.log(300)) < 1e-12


def test_hard_selection_margin_limit():
    z = np.zeros(10)
    z[3] = 50.0
    t = np.zeros(10)
    t[3] = 1.0
    assert hard_selection_loss([z], [t]) < 1e-12


def test_hard_selection_loop_oracle(rng):
    for _ in range(20):
        zs = [rng.normal(size=8) for _ in range(3)]
        ts = []
        for _ in range(3):
            t = np.zeros(8)
            t[rng.integers(8)] = 1.0
            ts.append(t)
        oracle = np.mean([_softmax_ce_oracle(z, t) for z, t in zip(zs, ts)])
        assert abs(hard_selection_loss(zs, ts) - oracle) < 1e-10


def test_hard_selection_grad_fd(rng):
    z = rng.normal(size=6)
    t = np.zeros(6)
    t[2] = 1.0
    grad = hard_selection_grad([z], [t])[0]
    eps = 1e-6
    for k in range(6):
        zp, zm = z.copy(), z.copy()
        zp[k] += eps
        zm[k] -= eps
        fd = (hard_selection_loss([zp], [t]) - hard_selection_loss([zm], [t])) / (2 * eps)
        assert abs(grad[k] - fd) < 1e-8


def test_hard_selection_mismatched():
    with pytest.raises(MismatchedLengths):
        hard_selection_loss([np.zeros(3)], [])


def test_soft_selection_all_zero_targets():
    assert soft_selection_loss([np.array([5.0, -3.0])], [np.zeros(2)],
                               mode="literal") == 0.0


def test_soft_selection_sigmoid_at_zero():
    loss = soft_selection_loss([np.zeros(1)], [np.ones(1)], mode="literal")
    assert abs(loss - (-np.log(0.5))) < 1e-12


def test_soft_selection_loop_oracles(rng):
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    for _ in range(20):
        zs = [rng.normal(size=7) for _ in range(2)]
        ds = [rng.uniform(0.0, 1.0, size=7) for _ in range(2)]
        lit = -np.mean([np.sum(d * np.log(sigmoid(z))) for z, d in zip(zs, ds)])
        sym = lit - np.mean([np.sum((1 - d) * np.log(1 - sigmoid(z)))
                             for z, d in zip(zs, ds)])
        assert abs(soft_selection_loss(zs, ds, mode="literal") - lit) < 1e-10
        assert abs(soft_selection_loss(zs, ds, mode="symmetric") - sym) < 1e-10


def test_soft_selection_binary_targets_reduce_to_positive_ce(rng):
    # With d in {0, 1}, the literal loss is exactly the positive-class
    # sigmoid cross-entropy restricted to the d = 1 entries.
    z = rng.normal(size=9)
    d = (rng.random(9) < 0.4).astype(np.float64)
    restricted = -np.sum(d * np.log(1.0 / (1.0 + np.exp(-z))))
    assert abs(soft_selection_loss([z], [d], mode="literal") - restricted) < 1e-10


def test_soft_selection_grad_fd(rng):
    z = rng.normal(size=5)
    d = rng.uniform(0.0, 1.0, size=5)
    for mode in ("literal", "symmetric"):
        grad = soft_selection_grad([z], [d], mode=mode)[0]
        eps = 1e-6
        for k in range(5):
            zp, zm = z.copy(), z.copy()
            zp[k] += eps
            zm[k] -= eps
            fd = (soft_selection_loss([zp], [d], mode=mode)
                  - soft_selection_loss([zm], [d], mode=mode)) / (2 * eps)
            assert abs(grad[k] - fd) / max(abs(fd), 1e-8) < 1e-6


def test_pose_loss_zero_and_offset(rng):
    p = _random_pose(rng)
    pts = rng.normal(size=(64, 3))
    assert pose_loss_rt([p], [p], [pts]) == 0.0
    delta = np.array([0.2, -0.1, 0.4])
    shifted = Pose9DoF(p.r, p.t + delta, p.s)
    loss = pose_loss_rt([p], [shifted], [pts])
    assert abs(loss - 64 * float(delta @ delta)) < 1e-9


def test_pose_loss_loop_oracle(rng):
    gt = _random_pose(rng)
    pred = _random_pose(rng)
    pts = rng.normal(size=(32, 3))
    oracle = sum(float(np.sum((apply_pose(pred, x) - apply_pose(gt, x)) ** 2))
                 for x in pts)
    assert abs(pose_loss_rt([gt], [pred], [pts]) - oracle) < 1e-9


def test_pose_loss_grads_fd(rng):
    gt = _random_pose(rng)
    m = random_rotation(rng).m + rng.normal(size=(3, 3)) * 0.2
    t = rng.normal(size=3)
    s = np.exp(rng.normal(size=3) * 0.2)
    pts = rng.normal(size=(24, 3))
    total, (gr, gt_, gs) = pose_loss_world_grads(
        project_to_so3([m]), [t], [s], [pts], [apply_pose(gt, pts)])
    gm, gt_, gs = chain_rotation_grad(project_to_so3([m]), [m], gr)[0], gt_[0], gs[0]

    def f(mm, tt, ss):
        pred = Pose9DoF(project_to_so3(mm), tt, ss)
        return pose_loss_rt([gt], [pred], [pts])

    eps = 1e-6
    fd_m = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3))
            e[i, j] = eps
            fd_m[i, j] = (f(m + e, t, s) - f(m - e, t, s)) / (2 * eps)
    fd_t = np.array([(f(m, t + eps * np.eye(3)[a], s)
                      - f(m, t - eps * np.eye(3)[a], s)) / (2 * eps) for a in range(3)])
    fd_s = np.array([(f(m, t, s + eps * np.eye(3)[a])
                      - f(m, t, s - eps * np.eye(3)[a])) / (2 * eps) for a in range(3)])
    assert np.linalg.norm(gm - fd_m) / np.linalg.norm(fd_m) < 1e-4
    assert np.linalg.norm(gt_ - fd_t) / np.linalg.norm(fd_t) < 1e-4
    assert np.linalg.norm(gs - fd_s) / np.linalg.norm(fd_s) < 1e-4


def test_pose_loss_world_grads_nonpositive_scale(rng):
    # An optimizer iterate may carry a zero or negative scale component.
    m = random_rotation(rng).m + rng.normal(size=(3, 3)) * 0.2
    t = rng.normal(size=3)
    s = np.array([0.8, 0.0, -0.5])
    pts = rng.normal(size=(24, 3))
    target = apply_pose(_random_pose(rng), pts)
    total, grads = pose_loss_world_grads([m], [t], [s], [pts], [target])
    assert np.isfinite(total)
    for g in grads:
        assert np.all(np.isfinite(g))

    # The gradients are w.r.t. the entries of r, t and s themselves.
    def f(rr, tt, ss):
        return pose_loss_world_grads([rr], [tt], [ss], [pts], [target])[0]

    eps = 1e-6
    e9 = np.eye(9).reshape(9, 3, 3)
    fd_r = np.array([(f(m + eps * e, t, s) - f(m - eps * e, t, s)) / (2 * eps)
                     for e in e9]).reshape(3, 3)
    fd_t = np.array([(f(m, t + eps * e, s) - f(m, t - eps * e, s)) / (2 * eps)
                     for e in np.eye(3)])
    fd_s = np.array([(f(m, t, s + eps * e) - f(m, t, s - eps * e)) / (2 * eps)
                     for e in np.eye(3)])
    for got, fd in zip(grads, (fd_r, fd_t, fd_s)):
        assert np.linalg.norm(got[0] - fd) / np.linalg.norm(fd) < 1e-6


def test_pose_loss_world_grads_stack_matches_single_objects(rng):
    # Each object's terms equal a call on that object alone, and the total
    # adds the objects' losses one by one, in order (a sum over the whole
    # stack rounds differently on some of these draws). One-point clouds make
    # each object's products single rows, which NumPy runs as matrix-vector
    # products; their bits must still match the stacked call's.
    n = 7
    for p in (40,) * 10 + (1, 2) * 5:
        ms = [random_rotation(rng).m + rng.normal(size=(3, 3)) * 0.2 for _ in range(n)]
        ms[2] = -ms[2]  # a det < 0 raw matrix
        ts = [rng.normal(size=3) for _ in range(n)]
        ss = [np.exp(rng.normal(size=3) * 0.2) for _ in range(n)]
        clouds = [rng.normal(size=(p, 3)) for _ in range(n)]
        targets = [apply_pose(_random_pose(rng), pts) for pts in clouds]
        total, grads = pose_loss_world_grads(ms, ts, ss, clouds, targets)
        assert [len(g) for g in grads] == [n] * 3
        running = 0.0
        for k in range(n):
            one_total, one_grads = pose_loss_world_grads(
                [ms[k]], [ts[k]], [ss[k]], [clouds[k]], [targets[k]])
            running += one_total
            for got, ref in zip(grads, one_grads):
                assert np.array_equal(got[k], ref[0])
        assert total == running


def test_pose_loss_world_grads_empty_and_mismatched(rng):
    total, grads = pose_loss_world_grads([], [], [], [], [])
    assert total == 0.0
    assert [g.shape for g in grads] == [(0, 3, 3), (0, 3), (0, 3)]
    ms, ts, ss = [np.eye(3)] * 2, [np.zeros(3)] * 2, [np.ones(3)] * 2
    clouds = [rng.normal(size=(24, 3)), rng.normal(size=(30, 3))]
    with pytest.raises(MismatchedLengths):
        pose_loss_world_grads(ms, ts, ss, clouds, clouds)
    same = [clouds[0], clouds[0]]
    with pytest.raises(MismatchedLengths):  # a target with its own point count
        pose_loss_world_grads(ms, ts, ss, same, [clouds[0], clouds[0][:20]])
    with pytest.raises(MismatchedLengths):
        pose_loss_world_grads(ms, ts, ss, same, same[:1])


def test_scale_loss_cases(rng):
    s = np.array([1.0, 1.2, 0.8])
    assert scale_loss([s], [s]) == 0.0
    err = np.array([0.1, 0.2, 0.3])
    assert abs(scale_loss([s], [s + err]) - 0.6) < 1e-12
    a = [rng.random(3) for _ in range(4)]
    b = [rng.random(3) for _ in range(4)]
    oracle = np.mean([np.abs(x - y).sum() for x, y in zip(a, b)])
    assert abs(scale_loss(a, b) - oracle) < 1e-12


def test_scale_loss_grad_fd(rng):
    a = [rng.random(3) + 0.5]
    b = [rng.random(3) + 2.0]  # well away from the kink at equality
    grad = scale_loss_grad(a, b)[0]
    eps = 1e-6
    for k in range(3):
        bp = [b[0].copy()]
        bp[0][k] += eps
        bm = [b[0].copy()]
        bm[0][k] -= eps
        fd = (scale_loss(a, bp) - scale_loss(a, bm)) / (2 * eps)
        assert abs(grad[k] - fd) < 1e-9
