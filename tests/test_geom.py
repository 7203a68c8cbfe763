import numpy as np
import pytest

from shapescene.errors import DegenerateMatrix
from shapescene.geom import (
    Pose9DoF,
    Rotation,
    apply_pose,
    chain_rotation_grad,
    geodesic_distance,
    project_to_so3,
    random_rotation,
    rotation_about_axis,
    sum_points,
)


def _quat_from_matrix(m):
    """Independent quaternion extraction (Shepperd's method), oracle only."""
    t = np.trace(m)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([s / 4.0,
                      (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s,
                      (m[1, 0] - m[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(1.0 + m[i, i] - m[j, j] - m[k, k]) * 2.0
        q = np.zeros(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = s / 4.0
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
    return q / np.linalg.norm(q)


def _sv_gaps_ok(m, gap=1e-3):
    sv = np.linalg.svd(m, compute_uv=False)
    return sv[0] - sv[1] > gap and sv[1] - sv[2] > gap


def test_rotation_validates():
    Rotation(np.eye(3))
    with pytest.raises(ValueError):
        Rotation(np.eye(3) * 2.0)
    with pytest.raises(ValueError):
        Rotation(np.diag([1.0, 1.0, -1.0]))  # reflection


def test_project_identity():
    r = project_to_so3(np.eye(3))
    assert np.allclose(r.m, np.eye(3), atol=1e-12)


def test_project_positive_diagonal():
    r = project_to_so3(np.diag([2.0, 3.0, 4.0]))
    assert np.allclose(r.m, np.eye(3), atol=1e-12)


def test_project_orthogonal_det_one():
    for seed in range(200):
        m = np.random.default_rng(seed).normal(size=(3, 3))
        r = project_to_so3(m)
        assert np.linalg.norm(r.m.T @ r.m - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(r.m) - 1.0) < 1e-9


def test_project_negative_det_rotation_grid_oracle():
    # Brute-force search over a fine SO(3) sampling must not beat the
    # projection's Frobenius distance.
    grid = np.stack([random_rotation(np.random.default_rng(50_000 + i)).m
                     for i in range(20_000)])
    for seed in range(20):
        m = np.random.default_rng(seed).normal(size=(3, 3))
        if np.linalg.det(m) >= 0 or not _sv_gaps_ok(m):
            continue
        r = project_to_so3(m)
        d_proj = np.linalg.norm(r.m - m)
        d_grid = np.sqrt(((grid - m) ** 2).sum(axis=(1, 2))).min()
        assert d_proj <= d_grid + 1e-12


def test_project_idempotent():
    for seed in range(50):
        q = random_rotation(np.random.default_rng(seed))
        r = project_to_so3(q.m)
        assert np.linalg.norm(r.m - q.m) < 1e-9


def test_project_left_equivariant():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        q = random_rotation(rng)
        m = rng.normal(size=(3, 3))
        lhs = project_to_so3(q.m @ m).m
        rhs = q.m @ project_to_so3(m).m
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_project_degenerate_raises():
    v = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateMatrix):
        project_to_so3(np.outer(v, v) * 0.0)  # zero matrix, rank 0
    with pytest.raises(DegenerateMatrix):
        project_to_so3(np.outer(v, v))  # rank 1


def _stack_with_edge_cases(rng, n=64):
    """Random matrices plus det < 0 and repeated-singular-value cases."""
    stack = rng.normal(size=(n, 3, 3))
    stack[0] = np.diag([2.0, 2.0, 1.0])   # repeated sigma, equal-sign pair
    stack[1] = np.diag([2.0, -1.0, 1.0])  # repeated sigma in a reflection pair
    stack[2] = np.diag([3.0, 3.0, 3.0])   # all three equal
    stack[3] = -rotation_about_axis(np.array([0.0, 0.0, 1.0]), 0.3).m  # det -1
    assert np.sum(np.linalg.det(stack) < 0) >= 10
    return stack


def test_project_stack_matches_per_matrix():
    stack = _stack_with_edge_cases(np.random.default_rng(11))
    rs = project_to_so3(stack)
    assert isinstance(rs, np.ndarray) and rs.shape == stack.shape
    for m, r in zip(stack, rs):
        assert np.array_equal(r, project_to_so3(m).m)
    assert np.array_equal(project_to_so3(stack[:1])[0], rs[0])


def test_project_stack_with_one_degenerate_matrix_raises():
    stack = np.random.default_rng(12).normal(size=(5, 3, 3))
    v = np.array([1.0, 2.0, 3.0])
    stack[3] = np.outer(v, v)  # rank 1
    with pytest.raises(DegenerateMatrix):
        project_to_so3(stack)
    with pytest.raises(ValueError):
        project_to_so3(np.ones((2, 2, 3, 3)))


def test_chain_rotation_grad_stack_matches_per_matrix():
    rng = np.random.default_rng(13)
    stack = _stack_with_edge_cases(rng)
    grads = rng.normal(size=stack.shape)
    out = chain_rotation_grad(project_to_so3(stack), stack, grads)
    assert out.shape == stack.shape
    for m, g, got in zip(stack, grads, out):
        assert np.array_equal(got, chain_rotation_grad(project_to_so3(m).m, m, g),
                              equal_nan=True)
    assert not np.all(np.isfinite(out[1]))
    assert np.all(np.isfinite(out[[0, 2]]))  # equal-sign pairs stay finite


def test_projection_gradient_matches_fd():
    # d/dm |project(m) - R_target|_F^2 via the chained analytic Jacobian.
    count = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(3, 3))
        if not _sv_gaps_ok(m):
            continue
        target = random_rotation(rng).m

        def f(mat):
            return float(np.sum((project_to_so3(mat).m - target) ** 2))

        grad_r = 2.0 * (project_to_so3(m).m - target)
        analytic = chain_rotation_grad(project_to_so3(m).m, m, grad_r)
        fd = np.zeros((3, 3))
        eps = 1e-5
        for i in range(3):
            for j in range(3):
                e = np.zeros((3, 3))
                e[i, j] = eps
                fd[i, j] = (f(m + e) - f(m - e)) / (2.0 * eps)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(analytic - fd) / denom < 1e-4
        count += 1
        if count >= 100:
            break
    assert count >= 100


def _jacobian_error(m, eps=1e-6):
    """Relative error of the pullback's 9x9 Jacobian at m against central
    differences of the projection itself."""
    fd = np.zeros((9, 9))
    for k in range(9):
        e = np.zeros(9)
        e[k] = eps
        e = e.reshape(3, 3)
        fd[:, k] = ((project_to_so3(m + e).m - project_to_so3(m - e).m)
                    / (2.0 * eps)).reshape(-1)
    jac = chain_rotation_grad(project_to_so3(m).m, m,
                              np.eye(9).reshape(9, 3, 3)).reshape(9, 9)
    return np.linalg.norm(jac - fd) / np.linalg.norm(fd)


def test_projection_jacobian_matches_fd():
    # On matrices of both determinant signs (det < 0 puts the third singular
    # value in the pullback with a minus sign).
    negative = 0
    for seed in range(40):
        m = np.random.default_rng(300 + seed).normal(size=(3, 3))
        if not _sv_gaps_ok(m):
            continue
        assert _jacobian_error(m) < 1e-6
        negative += np.linalg.det(m) < 0
    assert negative >= 10


def test_projection_jacobian_matches_fd_near_rotations():
    # The fit's raw iterates lie near rotations, where all three singular values
    # are about 1: no gap filter, the pullback's own regime.
    for seed in range(40):
        rng = np.random.default_rng(700 + seed)
        base = random_rotation(rng).m
        for noise in (0.0, 1e-6, 1e-3):
            assert _jacobian_error(base + noise * rng.normal(size=(3, 3))) < 1e-6


def test_geodesic_trivial():
    r = random_rotation(np.random.default_rng(3))
    # arccos near its endpoint has sqrt-of-roundoff sensitivity.
    assert geodesic_distance(r, r) < 1e-6
    half_turn = rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.pi)
    assert abs(geodesic_distance(Rotation.identity(), half_turn) - np.pi) < 1e-12


def test_geodesic_quaternion_oracle():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = random_rotation(rng)
        b = random_rotation(rng)
        rel = a.m.T @ b.m
        q = _quat_from_matrix(rel)
        oracle = 2.0 * np.arccos(np.clip(abs(q[0]), -1.0, 1.0))
        assert abs(geodesic_distance(a, b) - oracle) < 1e-9


def test_apply_pose_trivial():
    x = np.array([0.3, -0.7, 1.1])
    assert np.allclose(apply_pose(Pose9DoF.identity(), x), x)
    p = Pose9DoF(Rotation.identity(), np.array([1.0, 2.0, 3.0]), np.ones(3))
    assert np.allclose(apply_pose(p, np.zeros(3)), [1.0, 2.0, 3.0])


def test_apply_pose_homogeneous_oracle():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        p = Pose9DoF(random_rotation(rng), rng.normal(size=3),
                     np.exp(rng.normal(size=3) * 0.3))
        x = rng.normal(size=3)
        hom = np.eye(4)
        hom[:3, :3] = p.r.m @ np.diag(p.s)
        hom[:3, 3] = p.t
        oracle = (hom @ np.append(x, 1.0))[:3]
        assert np.linalg.norm(apply_pose(p, x) - oracle) < 1e-12


def test_sum_points_adds_points_in_order(rng):
    """sum_points adds the points one by one in point order, bit for bit as a
    Python loop and x.sum(axis=-2) do. Values spread over 26 decades round
    differently under any other order, so a NumPy whose einsum reorders the
    terms (pairwise or blocked) fails here."""
    for n in (1, 8, 40):
        for p in (1, 2, 7, 128, 129, 512, 4096):
            x = rng.normal(size=(n, p, 3)) * np.exp(rng.uniform(-30, 30, size=(n, p, 3)))
            running = np.zeros((n, 3))
            for k in range(p):
                running = running + x[:, k]
            assert np.array_equal(sum_points(x), running)
            assert np.array_equal(sum_points(x), x.sum(axis=-2))
            assert np.array_equal(sum_points(x[-1]), running[-1])


def test_rotation_about_axis_quarter_turn():
    r = rotation_about_axis(np.array([0.0, 0.0, 2.0]), np.pi / 2.0)
    assert np.allclose(np.array([1.0, 0.0, 0.0]) @ r.m.T, [0.0, 1.0, 0.0],
                       atol=1e-12)
