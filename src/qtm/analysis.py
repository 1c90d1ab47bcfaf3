"""Pattern post-processing on recorded trajectories.

Everything here works in the (lambda_y, lambda_z) plane; the trajectories
this machine generates for the standard initial states keep lambda_x = 0,
which the entry points verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CircleFitError, ConfigurationError

X_PLANE_TOL = 1e-9
MERGE_TOL = 1e-6  # circles this close in center and radius are one circle
RESIDUAL_TOL = 1e-6  # largest miss of a point from its fitted circle


@dataclass
class CircleSet:
    """A shared-radius family of circles covering a trajectory.

    assignments[i] is the circle index of trajectory point i;
    residues[j] lists the step residues (mod 2 cycles) merged into circle j,
    so a circle that absorbed a coincident partner has more than one entry.
    """

    radius: float
    centers: np.ndarray  # shape (k, 2)
    assignments: np.ndarray  # shape (npoints,)
    residues: list
    residual: float

    def __len__(self):
        return len(self.centers)


def _algebraic_circle(pts):
    """Least-squares circle through a point cloud.

    Linearizes |p - c|² = r² into 2 c·p + (r² - |c|²) = |p|², solved with
    lstsq. Collapsed clouds come back as radius 0 around the mean.
    """
    if np.max(np.ptp(pts, axis=0)) < 1e-12:
        return pts.mean(axis=0), 0.0
    coeffs = np.column_stack([2.0 * pts, np.ones(len(pts))])
    rhs = (pts ** 2).sum(axis=1)
    sol, *_ = np.linalg.lstsq(coeffs, rhs, rcond=None)
    center = sol[:2]
    r2 = sol[2] + center @ center
    return center, float(np.sqrt(max(r2, 0.0)))


def fit_invariant_circles(traj, max_circles) -> CircleSet:
    """Fit the family of circles traced by a trajectory in the yz plane.

    Points are seeded into clusters by step index modulo two cycles (each
    residue revisits one circle when the orbit structure is the simple one),
    clusters whose fitted circles coincide within MERGE_TOL are merged, a
    common radius is enforced by averaging, and centers are refit against
    the shared radius. Raises CircleFitError when more than max_circles
    distinct circles remain or any point misses its circle by more than
    RESIDUAL_TOL, naming the three worst points in step order; the latter
    is the expected outcome for three or more tape spins, where the orbit
    sub-manifolds are no longer plain circles.
    """
    if max_circles < 1:
        raise ConfigurationError(f"max_circles must be >= 1, got {max_circles}")
    worst = float(np.abs(traj.bloch[:, 0]).max())
    if worst > X_PLANE_TOL:
        raise ConfigurationError(
            f"trajectory leaves the x=0 plane (max |lambda_x| = {worst:.3e})"
        )
    yz = traj.yz()
    stride = 4 * traj.num_tape_spins
    groups = [list(range(r, len(yz), stride)) for r in range(min(stride, len(yz)))]
    residues = [[r] for r in range(len(groups))]
    circles = [_algebraic_circle(yz[g]) for g in groups]

    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                (ci, ri), (cj, rj) = circles[i], circles[j]
                if np.hypot(*(ci - cj)) < MERGE_TOL and abs(ri - rj) < MERGE_TOL:
                    groups[i].extend(groups[j])
                    residues[i].extend(residues[j])
                    del groups[j], residues[j], circles[j]
                    circles[i] = _algebraic_circle(yz[groups[i]])
                    merged = True
                    break
            if merged:
                break

    if len(groups) > max_circles:
        raise CircleFitError(
            f"{len(groups)} distinct circles, more than the allowed {max_circles}",
            num_circles=len(groups),
        )

    radius = float(np.mean([r for _, r in circles]))
    centers = np.array([_refit_center(yz[g], c, radius)
                        for (c, _), g in zip(circles, groups)])

    assignments = np.empty(len(yz), dtype=int)
    worst_val = 0.0
    worst_pts = []
    for j, g in enumerate(groups):
        assignments[g] = j
        err = np.abs(np.hypot(*(yz[g] - centers[j]).T) - radius)
        k = int(np.argmax(err))
        worst_pts.append((float(err[k]), g[k]))
        worst_val = max(worst_val, float(err[k]))
    if worst_val > RESIDUAL_TOL:
        # the three worst points, listed in step order: residuals that tie
        # to their last bits would otherwise order them by rounding
        worst_pts.sort(reverse=True)
        offenders = sorted((m, float(err), tuple(yz[m]))
                           for err, m in worst_pts[:3])
        raise CircleFitError(
            f"fit residual {worst_val:.3e} exceeds {RESIDUAL_TOL:.1e} "
            f"(worst at steps {[m for m, _, _ in offenders]})",
            residual=worst_val, worst=offenders, num_circles=len(groups),
        )
    return CircleSet(radius, centers, assignments, residues, worst_val)


def _refit_center(pts, center, radius):
    """Fixed-point center polish at a prescribed radius: move the center to
    the mean of the points pulled back along their radial directions."""
    if radius < 1e-12 or np.max(np.ptp(pts, axis=0)) < 1e-12:
        return pts.mean(axis=0)
    c = np.asarray(center, dtype=float)
    for _ in range(60):
        d = pts - c
        dist = np.hypot(d[:, 0], d[:, 1])
        nxt = (pts - radius * d / dist[:, None]).mean(axis=0)
        if np.hypot(*(nxt - c)) < 1e-15:
            return nxt
        c = nxt
    return c


@dataclass
class Spectrum:
    """Magnitude spectra of the y and z step sequences.

    frequencies are in cycles per step; the transform is scaled by
    1/sqrt(N) so the squared magnitudes sum to the squared signal
    (Parseval, unitary convention).
    """

    frequencies: np.ndarray
    magnitude_y: np.ndarray
    magnitude_z: np.ndarray


def spectrum(traj) -> Spectrum:
    bloch = traj.bloch
    n = len(bloch)
    if n < 2:
        raise ConfigurationError("need at least two trajectory points")
    scale = 1.0 / np.sqrt(n)
    return Spectrum(
        np.fft.fftfreq(n),
        np.abs(np.fft.fft(bloch[:, 1])) * scale,
        np.abs(np.fft.fft(bloch[:, 2])) * scale,
    )


@dataclass
class PointSet:
    points: np.ndarray  # shape (k, 2), yz plane, in first-visit order
    counts: np.ndarray  # visits per retained point


def distinct_points(traj, tol: float = 1e-9) -> PointSet:
    """Greedy dedup of the yz trajectory in visit order.

    A point within tol of an already retained point increments that point's
    count; otherwise it starts a new entry. For a periodic orbit the set
    stops growing once the orbit has closed, however far the trajectory is
    extended.
    """
    if tol <= 0:
        raise ConfigurationError("dedup tolerance must be positive")
    bloch = traj.bloch
    kept = np.empty((len(bloch), 2))
    counts = []
    k = 0
    for p in bloch[:, 1:]:
        if k:
            d = np.hypot(*(kept[:k] - p).T)
            j = int(np.argmin(d))
            if d[j] <= tol:
                counts[j] += 1
                continue
        kept[k] = p
        counts.append(1)
        k += 1
    return PointSet(kept[:k].copy(), np.array(counts))
