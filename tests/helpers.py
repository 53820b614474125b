"""Shared builders for randomized test systems.

Systems are assembled in real modal form from explicit poles and residues,
so every generated realization comes with an independent partial-fraction
evaluator to test against.
"""

from __future__ import annotations

import numpy as np

from loewner_lab.descriptor_ops import DescriptorRealization


def modal_realization(pairs, reals, feedthrough=0.0) -> DescriptorRealization:
    """Real state-space form of sum of r/(s-p) terms plus a feedthrough.

    ``pairs`` is a list of (pole, residue) with Im(pole) > 0, each standing
    for itself plus its conjugate; ``reals`` is a list of (real pole, real
    residue).
    """
    n = 2 * len(pairs) + len(reals)
    A = np.zeros((n, n))
    B = np.zeros((n, 1))
    C = np.zeros((1, n))
    k = 0
    for p, r in pairs:
        a, b = p.real, p.imag
        c, d = r.real, r.imag
        A[k : k + 2, k : k + 2] = [[a, b], [-b, a]]
        B[k, 0] = 1.0
        C[0, k] = 2.0 * c
        C[0, k + 1] = 2.0 * d
        k += 2
    for p, r in reals:
        A[k, k] = p
        B[k, 0] = 1.0
        C[0, k] = r
        k += 1
    return DescriptorRealization(E=np.eye(n), A=A, B=B, C=C, D=feedthrough)


def partial_fraction_eval(pairs, reals, feedthrough=0.0):
    """Independent evaluator for the same pole/residue data."""

    def transfer(s):
        s = np.asarray(s, dtype=complex)
        out = np.full(s.shape, complex(feedthrough))
        for p, r in pairs:
            out = out + r / (s - p) + np.conj(r) / (s - np.conj(p))
        for p, r in reals:
            out = out + r / (s - p)
        return out

    return transfer


def random_system(rng, stable=True, max_pairs=4, max_reals=2,
                  re_stable=(-3.0, -0.05), re_unstable=(0.05, 2.0),
                  im_range=(0.05, 50.0), res_mag=(0.1, 2.0)):
    """Random modal system with poles kept clear of the imaginary axis.

    Stable draws place every pole left of Re = -0.05.  Unstable draws keep
    the same recipe but force at least one conjugate pair (or real pole)
    into the right half-plane with residue magnitude >= the requested
    floor.  Returns (realization, oracle callable, pole array).
    """
    n_pairs = int(rng.integers(1, max_pairs + 1))
    n_reals = int(rng.integers(0, max_reals + 1))

    def draw_re(unstable_one):
        lo, hi = re_unstable if unstable_one else re_stable
        return rng.uniform(lo, hi)

    flip = int(rng.integers(0, n_pairs)) if not stable else -1
    pairs = []
    for j in range(n_pairs):
        p = complex(draw_re(j == flip), rng.uniform(*im_range))
        mag = rng.uniform(*res_mag)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        pairs.append((p, mag * np.exp(1j * ang)))
    reals = [
        (draw_re(False), rng.uniform(*res_mag) * rng.choice([-1.0, 1.0]))
        for _ in range(n_reals)
    ]
    rlz = modal_realization(pairs, reals)
    oracle = partial_fraction_eval(pairs, reals)
    poles = np.array(
        [p for p, _ in pairs]
        + [np.conj(p) for p, _ in pairs]
        + [complex(p) for p, _ in reals]
    )
    return rlz, oracle, poles


def dense_pair_transform(points) -> np.ndarray:
    """Dense unitary T mapping conjugate-pair coordinates to real ones.

    Reference for the pairwise realness transform: each adjacent pair
    (z, conj z) gets the block [[1, i], [1, -i]]/sqrt(2); lone real points
    get 1.  T^H L T is real for a Loewner matrix L of conjugate-symmetric
    data.
    """
    points = np.asarray(points)
    m = points.size
    T = np.zeros((m, m), dtype=complex)
    h = 1.0 / np.sqrt(2.0)
    i = 0
    while i < m:
        if points[i].imag == 0.0:
            T[i, i] = 1.0
            i += 1
            continue
        T[i : i + 2, i : i + 2] = [[h, 1j * h], [h, -1j * h]]
        i += 2
    return T


def shifted_loewner(partition) -> np.ndarray:
    """Reference shifted Loewner matrix from its divided-difference formula,

        Ls[i, j] = (mu_i v_i - lambda_j w_j) / (mu_i - lambda_j).

    The library never forms Ls; it reads it through the pencil identity
    Ls = Lw diag(lambda) + v 1^T.
    """
    mu, lam = partition.left_points, partition.right_points
    v, w = partition.left_values, partition.right_values
    return (mu[:, None] * v[:, None] - lam[None, :] * w[None, :]) / (
        mu[:, None] - lam[None, :]
    )


def dense_real_forms(pen):
    """(Lw, Ls, v, w) of a pencil under the dense transform, still complex."""
    Tl = dense_pair_transform(pen.partition.left_points)
    Tr = dense_pair_transform(pen.partition.right_points)
    TlH = Tl.conj().T
    return (
        TlH @ pen.loewner @ Tr,
        TlH @ shifted_loewner(pen.partition) @ Tr,
        TlH @ pen.partition.left_values,
        pen.partition.right_values @ Tr,
    )


def explicit_stack_svds(pen):
    """(U, s) of [Lw  Ls] and (s, Vt) of [Lw; Ls], from the stacks themselves."""
    Lw, Ls, _, _ = (M.real for M in dense_real_forms(pen))
    U, s_row, _ = np.linalg.svd(np.hstack([Lw, Ls]), full_matrices=False)
    _, s_col, Vt = np.linalg.svd(np.vstack([Lw, Ls]), full_matrices=False)
    return (U, s_row), (s_col, Vt)


def explicit_projection(pen, r) -> DescriptorRealization:
    """Order-r projection of a pencil with singular vectors of the full stacks."""
    Lw, Ls, v, w = (M.real for M in dense_real_forms(pen))
    (U, _), (_, Vt) = explicit_stack_svds(pen)
    Y = U[:, :r]
    X = Vt[:r, :].T
    return DescriptorRealization(
        E=-(Y.T @ Lw @ X),
        A=-(Y.T @ Ls @ X),
        B=(Y.T @ v).reshape(r, 1),
        C=(w @ X).reshape(1, r),
        D=0.0,
    )
