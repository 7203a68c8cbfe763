import numpy as np
import pytest

from shapescene.errors import MismatchedLengths
from shapescene.geom import Pose9DoF, Rotation, apply_pose, random_rotation
from shapescene.losses import (
    LossWeights,
    binned_rotation_loss,
    hard_selection_grad,
    hard_selection_loss,
    pose_loss_rt,
    pose_loss_rt_grads,
    pose_loss_world_grads,
    rot_loss_frobenius,
    scale_loss,
    scale_loss_grad,
    soft_selection_grad,
    soft_selection_loss,
    total_objective,
    trans_loss_huber,
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


def test_pose_loss_normalized_flag(rng):
    gt = _random_pose(rng)
    pred = _random_pose(rng)
    pts = rng.normal(size=(32, 3))
    raw = pose_loss_rt([gt], [pred], [pts])
    norm = pose_loss_rt([gt], [pred], [pts], normalized=True)
    assert abs(norm - raw / 32.0) < 1e-12


def test_pose_loss_grads_fd(rng):
    gt = _random_pose(rng)
    m = random_rotation(rng).m + rng.normal(size=(3, 3)) * 0.2
    t = rng.normal(size=3)
    s = np.exp(rng.normal(size=3) * 0.2)
    pts = rng.normal(size=(24, 3))
    total, grads = pose_loss_rt_grads([gt], [m], [t], [s], [pts])
    gm, gt_, gs = grads[0]

    def f(mm, tt, ss):
        from shapescene.geom import project_to_so3
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


def test_pose_loss_world_grads_equal_gt_pose_form(rng):
    gts = [_random_pose(rng) for _ in range(3)]
    ms = [random_rotation(rng).m + rng.normal(size=(3, 3)) * 0.2 for _ in gts]
    ts = [rng.normal(size=3) for _ in gts]
    ss = [np.exp(rng.normal(size=3) * 0.2) for _ in gts]
    clouds = [rng.normal(size=(24, 3)) for _ in gts]
    targets = [apply_pose(gt, pts) for gt, pts in zip(gts, clouds)]
    total, grads = pose_loss_world_grads(ms, ts, ss, clouds, targets)
    ref_total, ref_grads = pose_loss_rt_grads(gts, ms, ts, ss, clouds)
    assert total == ref_total
    for got, ref in zip(grads, ref_grads):
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def test_pose_loss_world_grads_nonpositive_scale(rng):
    # An optimizer iterate may carry a zero or negative scale component.
    m = random_rotation(rng).m + rng.normal(size=(3, 3)) * 0.2
    t = rng.normal(size=3)
    s = np.array([0.8, 0.0, -0.5])
    pts = rng.normal(size=(24, 3))
    target = apply_pose(_random_pose(rng), pts)
    total, grads = pose_loss_world_grads([m], [t], [s], [pts], [target])
    assert np.isfinite(total)
    for g in grads[0]:
        assert np.all(np.isfinite(g))

    def f(ss):
        return pose_loss_world_grads([m], [t], [ss], [pts], [target])[0]

    eps = 1e-6
    fd_s = np.array([(f(s + eps * np.eye(3)[a]) - f(s - eps * np.eye(3)[a])) / (2 * eps)
                     for a in range(3)])
    assert np.linalg.norm(grads[0][2] - fd_s) / np.linalg.norm(fd_s) < 1e-6


def test_rot_loss_frobenius_cases(rng):
    r = random_rotation(rng)
    assert rot_loss_frobenius(r, r) == 0.0
    flip = Rotation(np.diag([-1.0, -1.0, 1.0]))
    assert abs(rot_loss_frobenius(Rotation.identity(), flip) - np.sqrt(8.0)) < 1e-12


def test_trans_loss_huber_cases():
    t = np.array([1.0, 2.0, 3.0])
    assert trans_loss_huber(t, t) == 0.0
    assert abs(trans_loss_huber(t, t + np.array([0.5, 0, 0])) - 0.125) < 1e-12
    assert abs(trans_loss_huber(t, t + np.array([2.0, 0, 0])) - 1.5) < 1e-12


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


def test_binned_rotation_uniform_ce():
    loss = binned_rotation_loss(np.pi / 8.0, np.zeros(8), np.zeros(8))
    assert abs(loss - np.log(8)) < 1e-12  # yaw at bin 0's center, zero offset


def test_binned_rotation_perfect():
    logits = np.zeros(8)
    logits[2] = 60.0
    center = (2 + 0.5) * (2 * np.pi / 8)
    assert binned_rotation_loss(center, logits, np.zeros(8)) < 1e-12


def test_binned_rotation_scalar_oracle(rng):
    yaw = float(rng.uniform(0, 2 * np.pi))
    logits = rng.normal(size=8)
    offsets = rng.normal(size=8) * 0.1
    width = 2 * np.pi / 8
    gt_bin = int(yaw // width)
    ce = -np.log(np.exp(logits)[gt_bin] / np.exp(logits).sum())
    e = abs(offsets[gt_bin] - (yaw - (gt_bin + 0.5) * width))
    huber = 0.5 * e * e if e <= 1.0 else e - 0.5
    assert abs(binned_rotation_loss(yaw, logits, offsets) - (ce + huber)) < 1e-10


def test_total_objective_weights():
    assert total_objective(0, 0, 0, 0, 0) == 0.0
    assert abs(total_objective(1, 1, 1, 1, 1, iteration=200) - 22.1) < 1e-12
    assert abs(total_objective(1, 1, 1, 1, 1, iteration=50) - 21.1) < 1e-12


def test_loss_weights_validate():
    with pytest.raises(ValueError):
        LossWeights(rt=-1.0)
