"""Newton-CG flow onto the set of minimal vectors.

The conjugation orbit of (A, B) carries the energy F = ||A||^2 + ||B||^2.
Differentiating along exp(tH) for Hermitian H, in the inner product
Re tr(HK), gives dF/dt|_0 = 2 Re tr(H mu) with the moment map
mu = [A, A*] + [B, B*], so the gradient at the identity is 2 mu, and
d^2F/dt^2|_0 = 4 (||[H, A]||^2 + ||[H, B]||^2), so the Hessian is positive
semi-definite (F is convex along these curves).  Points with mu = 0 are
exactly the minimal vectors on their orbit.  Unitary directions preserve
F, so only Hermitian steps are taken: each iteration solves the Newton
system by truncated conjugate gradients, moves to the minimum of the
energy along the geodesic exp(t d) when it lies past the Newton step, and
checks the step by Armijo backtracking; the flow stalls when no step is
accepted, because every trial is rejected or the Newton direction is not
finite.  CG's forcing term is
proportional to ||mu|| near the minimum, where the full Newton step is
taken and the convergence is quadratic, and it is floored at half the
stop level, so that the last solve stops at what the stop test needs.
Each accepted iterate is recorded with its measured energy, which a
resolution-limited tail step may raise by rounding;
FlowTrace.energy_monotone bounds that rise by the resolution the step
was accepted with.  minimality_certificate reads the spectrum of the
same Hessian at a point.

Before the first Newton step the flow takes one warm step: it
conjugates by B's eigenvectors, changes their basis inside each repeated
eigenspace when that is needed, and scales the result in closed form,
which on every input of the benchmark's seeds 0 and 1 lands on the
minimum (see _warm_start).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar, NamedTuple

import numpy as np

from .bsrep import Rep, residual
from .errors import NoConvergence
from .numerics import finite_positive, hs_norm, json_int

__all__ = [
    "CONVERGED",
    "ITER_BUDGET",
    "LINE_SEARCH_STALLED",
    "FlowConfig",
    "FlowRecord",
    "FlowTrace",
    "kn_energy",
    "moment_map",
    "schur_gap",
    "flow",
    "MinimalityCertificate",
    "minimality_certificate",
]

CONVERGED = "converged"
ITER_BUDGET = "iter_budget"
#: Every trial of one line search was rejected, or none could be measured
#: along a non-finite Newton direction, before the budget ran out.
LINE_SEARCH_STALLED = "line_search_stalled"

_MAX_BACKTRACKS = 80
#: Largest |t w| of a trial exp(t d), w an eigenvalue of d: beyond it the
#: conjugation could overflow.
_EXP_CAP = 60.0
#: CG stops once its residual is min(_FORCING_CAP, ||mu|| / (1 + E)) ||mu||
#: (E the energy) or _FORCING_FLOOR times the stop level tol (1 + E),
#: whichever is larger.
_FORCING_CAP = 0.1
_FORCING_FLOOR = 0.5
#: Scalar Newton steps of the search for the energy's minimum on a geodesic.
_LINE_STEPS = 8
#: Exponents of the rows 1, x and x^2 of _line_minimum.
_POWERS = np.arange(3.0)[:, None]
_EPS = float(np.finfo(float).eps)
#: Share of the Hessian's largest eigenvalue at or below which an eigenvalue
#: counts as its kernel.
_KERNEL_CUT = 1e-8
#: Largest ||V|| ||V^-1|| (Hilbert-Schmidt) of B's eigenvector matrix V at
#: which the flow takes its warm step; past it the eigenbasis of a nearly
#: defective B means nothing and the flow starts cold.
_WARM_COND = 1e4


@dataclass(frozen=True)
class FlowConfig:
    """Settings of the descent; defaults suit desk-scale problems.

    tol: stop once ||mu|| <= tol * (1 + energy); CG asks no Newton system
        for a residual below half of that level.  Finite and positive.
    max_iter: iteration budget, an integer >= 1.  Both are kept as checked.

    The line search's constants are class attributes, not settings:
    eta0: first trial step along each search direction s d, where d is the
        Newton direction and s >= 1 puts s d at the energy's minimum on
        the geodesic exp(t d) when that lies past d (s = 1 otherwise);
        1 is the full step.
    armijo: sufficient-decrease constant: a step eta is accepted when the
        energy drops by at least armijo * min(eta s, 1) * (-<2 mu, d>),
        the first-order decrease along d capped at one Newton step.  Near
        the minimum the quadratic model predicts a drop of half that
        first-order term for the full step, so below 1/2 the full step is
        accepted there.
    shrink: backtracking factor applied to eta after a rejected trial.
    SL and GL inputs take the same flow: mu and d are traceless, and
    conjugation keeps det A and det B whatever the trace of its generator.
    """

    tol: float = 1e-10
    max_iter: int = 10**5
    eta0: ClassVar[float] = 1.0
    armijo: ClassVar[float] = 0.25
    shrink: ClassVar[float] = 0.5

    def __post_init__(self):
        object.__setattr__(self, "tol", finite_positive(self.tol, "tol"))
        object.__setattr__(self, "max_iter", json_int(self.max_iter, "max_iter", 1))


@dataclass(frozen=True)
class FlowRecord:
    iteration: int
    energy: float
    moment_norm: float
    step: float
    residual: float


@dataclass(frozen=True)
class FlowTrace:
    """Per-iteration records of accepted iterates, each with its measured
    energy, plus the outcome flag, the Hessian products the Newton solves
    took and whether the flow took its warm step (record 1, reached with
    no Hessian product)."""

    records: tuple[FlowRecord, ...]
    outcome: str
    #: The flow's energy resolution per unit of 1 + energy, 128 n eps: the
    #: smallest energy change it tells apart from the rounding noise of
    #: the conjugation product chain (a few n ulps of the energy).
    resolution_unit: float
    #: Hessian-vector products of every Newton solve's CG.
    hessian_products: int = 0
    #: Whether record 1 is the warm step's point (see flow).
    warm_start: bool = False

    @property
    def converged(self) -> bool:
        return self.outcome == CONVERGED

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration

    def max_residual(self) -> float:
        """Largest recorded residual; NaN if any residual is NaN."""
        return float(np.max([r.residual for r in self.records]))

    def energy_monotone(self) -> bool:
        """True iff no step raised the energy E by more than the resolution
        resolution_unit * (1 + E): the float test by which flow accepts a
        step in its resolution-limited tail, where a measured energy can
        rise by rounding.  A strict Armijo step lowers E."""
        e = [r.energy for r in self.records]
        unit = self.resolution_unit
        return all(e2 <= e1 + unit * (1.0 + e1) for e1, e2 in zip(e, e[1:]))

    def first_below(self, level: float) -> int | None:
        """First iteration with ||mu|| <= level * (1 + energy), if any."""
        for r in self.records:
            if r.moment_norm <= level * (1.0 + r.energy):
                return r.iteration
        return None


def _energy(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, a).real + np.vdot(b, b).real)


def _resolution_unit(n: int) -> float:
    """FlowTrace.resolution_unit at dimension n."""
    return 128.0 * n * _EPS


def _moment(ab: np.ndarray) -> np.ndarray:
    """The moment map of the stack ab = (A, B), Hermitian, from the four
    products A A*, B B*, A* A and B* B; the flow forms it at every iterate."""
    abh = ab.conj().transpose(0, 2, 1)
    left = ab @ abh
    right = abh @ ab
    m = left[0] - right[0] + left[1] - right[1]
    return 0.5 * (m + m.conj().T)


def kn_energy(rep: Rep) -> float:
    """||A||^2 + ||B||^2 in the Hilbert-Schmidt norm."""
    return _energy(rep.A, rep.B)


def moment_map(rep: Rep) -> np.ndarray:
    """mu = [A, A*] + [B, B*], Hermitian; zero exactly at minimal vectors.

    mu is a sum of commutators, so it is traceless: the moment map of
    SL_n and of GL_n acting by conjugation are the same.
    """
    return _moment(np.stack((rep.A, rep.B)))


def schur_gap(rep: Rep) -> float:
    """E - sum |lambda(A)|^2 - sum |lambda(B)|^2, the energy above Schur's
    bound: ||X||^2 >= sum |lambda(X)|^2, with equality exactly when X is
    normal, and conjugation keeps the eigenvalues.  So the gap is positive
    off the normal pairs and zero up to rounding where A and B are both
    normal, as at the minimal vectors of closed orbits that the flow
    reaches.  NaN when eig fails."""
    try:
        lam = np.linalg.eigvals(np.stack((rep.A, rep.B)))
    except np.linalg.LinAlgError:
        return math.nan
    return kn_energy(rep) - float(np.vdot(lam, lam).real)


def _hessian(ab: np.ndarray):
    """Half the energy's Hessian at the identity (the Hessian of F/2,
    whose gradient is mu), as a map on Hermitian h; ab is the stack
    (A, B).  Only a Newton step and minimality_certificate build it, so
    it forms P and the adjoints itself, by the products _moment takes.

    Along exp(th), d^2F/dt^2 = 4 sum_X ||[h, X]||^2 over X in {A, B}; its
    polarization is 4 Herm(sum_X [[h, X], X*]).  Expanded and halved, that
    is hP + Ph - 2 sum_Y Y h Y* with P = sum_X (X X* + X* X) and Y over
    {A, B, A*, B*}.  One stacked product gives h P and every h Y*, and the
    sum is one product of the side-by-side Ys with the stacked h Y*s.
    """
    n = ab.shape[1]
    abh = ab.conj().transpose(0, 2, 1)
    pm = ab @ abh + abh @ ab
    y_row = np.concatenate((*ab, *abh), axis=1)
    right = np.concatenate(((pm[0] + pm[1])[None], abh, ab))

    def apply(h: np.ndarray) -> np.ndarray:
        hr = h @ right
        m = hr[0] - y_row @ hr[1:].reshape(4 * n, n)
        m += m.conj().T
        return m

    return apply


def _inner(h: np.ndarray, k: np.ndarray) -> float:
    """Re tr(h k) for Hermitian h, the metric of the Hermitian directions."""
    return float(np.vdot(h, k).real)


def _newton_direction(
    mu: np.ndarray, mu_norm: float, hess, energy: float, tol: float
) -> tuple[np.ndarray, int]:
    """Truncated CG on hess(d) = -mu, started at d = 0, hess half the
    energy's Hessian (its gradient is 2 mu); returns d and the number of
    Hessian products taken.

    Stops once the residual falls to
    max(min(_FORCING_CAP, ||mu|| / (1 + E)) ||mu||, _FORCING_FLOOR tol (1 + E))
    at energy E, after n^2 steps (the dimension of the Hermitian
    directions), or on non-positive curvature or an overflowed ||mu||,
    where the first step falls back to -mu.  The first term is the cap
    far from the minimum and forcing proportional to ||mu|| near it,
    which makes the outer iteration quadratic (Dembo, Eisenstat and
    Steihaug 1982); ||mu|| is normalized by 1 + E as in the stop test
    ||mu|| <= tol (1 + E), so the rule does not depend on the input's
    scale.  The second keeps the last solve from going far past that stop
    level (Eisenstat and Walker 1996).
    From zero, CG stays in the Hessian's range, so the stabilizer kernel
    (scalars, and block scalars of direct sums) never enters the solve,
    and d is traceless up to rounding as mu is.

    CG solves for d c with c = 2^-e and 1 + E = m 2^e (frexp): the
    curvature <p, H p> is of order E^3 and overflows from E ~ 1e100 on,
    while c, a power of two, scales every product exactly.
    """
    scale = 1.0 + energy
    c = math.ldexp(1.0, -math.frexp(scale)[1])
    forcing = c * max(
        min(_FORCING_CAP, mu_norm / scale) * mu_norm, _FORCING_FLOOR * tol * scale
    )
    d = np.zeros_like(mu)
    r = mu * -c
    p = r.copy()
    rr = (c * mu_norm) * (c * mu_norm)
    for k in range(mu.shape[0] ** 2):
        hp = hess(p)
        curvature = _inner(p, hp)
        if not (curvature > 0.0 and rr < math.inf):
            if k == 0:
                d = r
            break
        alpha = rr / curvature
        d += alpha * p
        hp *= alpha
        r -= hp
        rr_next = _inner(r, r)
        if math.sqrt(rr_next) <= forcing:
            break
        p *= rr_next / rr
        p += r
        rr = rr_next
    return d / c, k + 1


def _line_minimum(tilde: np.ndarray, x: np.ndarray, cap: float) -> float:
    """The step s in [1, cap] to the energy's minimum along exp(t d), or 1
    when the energy no longer falls at t = 1.

    d = V diag(w) V*, tilde is the stack (V* A V, V* B V) and
    x_ij = 2 (w_i - w_j), so that along exp(t d) the energy is
    F(t) = sum_ij c_ij e^(x_ij t) with c = |V* A V|^2 + |V* B V|^2
    entrywise.  log F is convex (its second derivative is the variance of
    x under the weights c e^(x t)), so Newton steps on it, kept inside the
    bracket of the minimum by bisection, find the minimum; the best point
    seen is returned, so F(s) <= F(1).
    """
    if not cap > 1.0:
        return 1.0
    c = (tilde * tilde.conj()).real.sum(axis=0).ravel()
    # Rows 1, x and x^2: one product gives F and its first two derivatives.
    powers = x.ravel() ** _POWERS
    x = powers[1]
    lo, hi, t = 1.0, cap, 1.0
    best_t, best_f = 1.0, math.inf
    for i in range(_LINE_STEPS):
        f, f1, f2 = (powers @ (c * np.exp(x * t))).tolist()
        if f < best_f:
            best_t, best_f = t, f
        if f1 < 0.0:
            lo = t
        elif i == 0:
            return 1.0
        else:
            hi = t
        g1 = f1 / f
        g2 = f2 / f - g1 * g1
        nxt = t - g1 / g2 if g2 > 0.0 else hi
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= 1e-3 * t:
            break
        t = nxt
    return best_t


def _line_search(ab, mu, mu_norm, d, energy, resolution, cfg):
    """The step the flow accepts along the Newton direction d at the
    iterate ab: (ab2, energy, mu, mu_norm, eta) of the trial
    exp(eta s d), or None when d is not finite or every trial is rejected.

    s >= 1 takes s d to the energy's minimum along exp(t d) when the full
    step's Armijo drop is above the resolution (s = 1 otherwise, as in the
    resolution-limited tail), capped so that no trial overflows; eta and
    the acceptance test are FlowConfig's.
    """
    if not np.isfinite(d).all():
        return None
    try:
        w, v = np.linalg.eigh(d)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigendecomposition of the Newton step failed") from exc
    vh = v.conj().T
    # The stack (V* A V, V* B V).
    tilde = vh @ ab @ v
    dw = np.subtract.outer(w, w)
    drop_rate = -2.0 * _inner(mu, d)
    s = 1.0
    if cfg.armijo * drop_rate > resolution:
        s = _line_minimum(tilde, 2.0 * dw, _EXP_CAP / _max_modulus(w))
        w, dw = s * w, s * dw
    eta = cfg.eta0
    # Shrink past steps that would overflow the conjugation before the
    # trials, so that they use none of the backtracks.
    while eta * _max_modulus(w) > _EXP_CAP:
        eta *= cfg.shrink
    for _ in range(_MAX_BACKTRACKS):
        # exp(eta s d) X exp(-eta s d) = V ((V* X V) o E) V* with
        # E_ij = e^(eta s (w_i - w_j)), for X = A and B at once.
        ab2 = v @ (tilde * np.exp(eta * dw)) @ vh
        required = cfg.armijo * min(eta * s, 1.0) * drop_rate
        e2 = _energy(*ab2)
        if required > resolution:
            if e2 <= energy - required:
                mu2 = _moment(ab2)
                return ab2, e2, mu2, hs_norm(mu2), eta
        elif e2 <= energy + resolution:
            # Resolution-limited tail: the energy is numerically
            # stationary, so progress is certified on the moment norm
            # instead while the energy is held to measurement noise.
            mu2 = _moment(ab2)
            mu2_norm = hs_norm(mu2)
            if mu2_norm < mu_norm:
                return ab2, e2, mu2, mu2_norm, eta
        eta *= cfg.shrink
    return None


def _max_modulus(w: np.ndarray) -> float:
    # eigh sorts w ascending, so its largest modulus is at an end.
    return max(abs(w[0]), abs(w[-1]))


def _cycle_start(a: np.ndarray) -> np.ndarray | None:
    """The x that minimizes sum_ij a_ij e^(2 (x_i - x_j)), the energy of
    diag(e^x) A~ diag(e^-x) with a = |A~|^2 entrywise (B~ = V^-1 B V is
    diagonal, so its energy does not depend on x), when a is that of a
    weighted permutation, read off each row's largest entry:
    with sigma(i) = argmax_j a_ij, x_i - x_sigma(i) is half the mean of
    log a_k sigma(k) over i's cycle minus log a_i sigma(i), so that every
    scaled entry on a cycle is the cycle's geometric mean and each row sum
    equals its column sum.  A 1-cycle imposes nothing.  These conditions
    fix x only up to a constant on each cycle; x is shifted to mean 0 on
    each cycle, the solution of least norm, so that no arbitrary offset
    between cycles scales the entries that join them or enters the spread
    test.  None when sigma is not a permutation, an a_i sigma(i) is 0, or
    the spread of x exceeds _EXP_CAP / 2."""
    n = len(a)
    sigma = a.argmax(axis=1).tolist()
    weights = a.max(axis=1).tolist()
    if len(set(sigma)) < n or not min(weights) > 0.0:
        return None
    # Plain floats: n is small, and numpy's per-call cost would dominate.
    x = [0.0] * n
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        while (j := sigma[cycle[-1]]) != start:
            cycle.append(j)
        log_a = [math.log(weights[i]) for i in cycle]
        mean = sum(log_a) / len(cycle)
        # x_sigma(i) = x_i + (log a_i sigma(i) - mean) / 2 along the cycle.
        path = list(accumulate((0.5 * (la - mean) for la in log_a[:-1]), initial=0.0))
        shift = sum(path) / len(cycle)
        for i, xi in zip(cycle, path):
            seen[i] = True
            x[i] = xi - shift
    if not max(x) - min(x) <= 0.5 * _EXP_CAP:
        return None
    return np.array(x)


def _clusters(lam: np.ndarray, tol: float) -> list[list[int]] | None:
    """B's eigenvalues lam grouped into clusters, the connected components
    of the relation |lam_i - lam_j| <= tol, each a sorted index list; None
    when every cluster is one eigenvalue."""
    close = np.abs(np.subtract.outer(lam, lam)) <= tol
    if close.sum() == len(lam):
        return None
    rows = close.tolist()
    label = [-1] * len(lam)
    clusters: list[list[int]] = []
    for start in range(len(lam)):
        if label[start] >= 0:
            continue
        label[start] = len(clusters)
        cluster = [start]
        for i in cluster:  # grows while it is walked
            for j, near in enumerate(rows[i]):
                if near and label[j] < 0:
                    label[j] = len(clusters)
                    cluster.append(j)
        clusters.append(sorted(cluster))
    return clusters


def _cluster_basis(a: np.ndarray, clusters: list[list[int]]) -> np.ndarray | None:
    """The block-diagonal T, one block T_c per cluster c of B's eigenvalues,
    that makes T^-1 a T a weighted permutation, a = A~ = V^-1 A V.

    Each column cluster c is sent to the row cluster sigma(c) that holds
    most of its block's squared norm; the rest is rounding at a closed
    orbit's conjugated minimal point.  Along each cycle c_1 -> ... -> c_k
    -> c_1 of sigma with clusters of size r > 1, X_i = a[c_(i+1), c_i] and
    the monodromy M = X_k ... X_1 maps c_1 to itself; T_(c_1) = W, the
    eigenvectors of M, and T_(c_(i+1)) = X_i T_(c_i).  Then each block of
    T^-1 a T along the cycle is the identity but the closing one, which is
    W^-1 M W, diagonal.  Clusters of size 1 keep T_c = 1.  None when sigma
    is not a permutation of clusters of equal sizes, eig of a monodromy
    fails, or ||W|| ||W^-1|| exceeds _WARM_COND.
    """
    n, m = len(a), len(clusters)
    label = np.empty(n, dtype=int)
    for c, cluster in enumerate(clusters):
        label[cluster] = c
    pairs = (label[:, None] * m + label[None, :]).ravel()
    block = np.bincount(pairs, (a * a.conj()).real.ravel(), m * m).reshape(m, m)
    sigma = block.argmax(axis=0).tolist()
    sizes = [len(cluster) for cluster in clusters]
    if len(set(sigma)) < m or any(sizes[sigma[c]] != sizes[c] for c in range(m)):
        return None
    t = np.eye(n, dtype=complex)
    seen = [size == 1 for size in sizes]
    for start in range(m):
        if seen[start]:
            continue
        cycle = [start]
        while (c := sigma[cycle[-1]]) != start:
            cycle.append(c)
        xs = [a[np.ix_(clusters[sigma[c]], clusters[c])] for c in cycle]
        monodromy = xs[0]
        for x in xs[1:]:
            monodromy = x @ monodromy
        try:
            w = np.linalg.eig(monodromy)[1]
            cond = hs_norm(w) * hs_norm(np.linalg.inv(w))
        except np.linalg.LinAlgError:
            return None
        if not cond <= _WARM_COND:
            return None
        for c, x in zip(cycle, xs):
            seen[c] = True
            t[np.ix_(clusters[c], clusters[c])] = w
            w = x @ w
    return t


def _scaled_point(warm: np.ndarray, energy: float, cfg: FlowConfig):
    """The stack warm, a conjugate of (A, B) whose B is diagonal, scaled by
    D = diag(e^x), x the cycle solution of _cycle_start, or not scaled when
    there is none, as _line_search returns a step:
    (D warm D^-1, energy, mu, mu_norm, eta0).  None unless its energy
    is finite and at most `energy`."""
    x = _cycle_start((warm[0] * warm[0].conj()).real)
    if x is not None:
        warm = warm * np.exp(np.subtract.outer(x, x))
    warm_energy = _energy(*warm)
    # NaN fails this test too, so a non-finite warm point is discarded.
    if not warm_energy <= energy:
        return None
    mu = _moment(warm)
    return warm, warm_energy, mu, hs_norm(mu), cfg.eta0


def _warm_start(ab: np.ndarray, energy: float, cfg: FlowConfig):
    """The flow's warm step from the stack ab = (A, B) at energy `energy`,
    as _line_search returns a step, or None when the flow starts cold.

    At the minimum of a closed orbit B is diagonal in an orthonormal basis
    and A maps its eigenlines to eigenlines (Kempf and Ness 1979).  So,
    with B = V diag(lambda) V^-1, the bare point is _scaled_point of
    V^-1 ab V: when A~ = V^-1 A V is a weighted permutation up to
    rounding, as at a conjugated minimal point, the cycle solution is the
    closed-form minimum over the diagonal conjugations (matrix scaling;
    Linial, Samorodnitsky and Wigderson 2000).  When the bare point passes
    the stop test it is the step.  Otherwise, when B has a repeated
    eigenvalue, eig's basis of that eigenspace is arbitrary, and
    _cluster_basis changes it inside each cluster of equal eigenvalues by
    T so that A~ becomes a weighted permutation; _scaled_point of
    T^-1 V^-1 ab V T is then the step, or the bare point when T or its
    inverse fails or that point does.  Two eigenvalues count as equal when
    they lie within 128 n eps ||B|| ||V|| ||V^-1|| (Hilbert-Schmidt
    norms): eig returns the exact eigenvalues of B + E with ||E|| a small
    multiple of n eps ||B||, and by Bauer and Fike each lies within
    ||V|| ||V^-1|| ||E|| of one of B's.  On the benchmark's inputs at
    seeds 0 and 1, eig split equal eigenvalues by at most
    6.7 eps ||B|| ||V|| ||V^-1|| and put distinct ones at least 4e8 times
    that apart, and the warm point is the minimum.  None when the energy
    is not finite, eig or inv fails, ||V|| ||V^-1|| exceeds _WARM_COND (a
    nearly defective B, whose eigenbasis means nothing), or no point has
    a finite energy at most `energy`, so that energy_monotone holds from
    record 0 on.
    """
    if not math.isfinite(energy):
        return None
    try:
        lam, v = np.linalg.eig(ab[1])
        vi = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    cond = hs_norm(v) * hs_norm(vi)
    if not cond <= _WARM_COND:
        return None
    tilde = vi @ ab @ v
    bare = _scaled_point(tilde, energy, cfg)
    if bare is not None and bare[3] <= cfg.tol * (1.0 + bare[1]):
        return bare
    clusters = _clusters(lam, _resolution_unit(len(lam)) * hs_norm(ab[1]) * cond)
    t = None if clusters is None else _cluster_basis(tilde[0], clusters)
    if t is None:
        return bare
    try:
        ti = np.linalg.inv(t)
    except np.linalg.LinAlgError:
        return bare
    return _scaled_point(ti @ tilde @ t, energy, cfg) or bare


def flow(
    rep: Rep, cfg: FlowConfig | None = None, *, initial_residual: float | None = None
) -> tuple[Rep, FlowTrace]:
    """Drive a representation to the minimal-vector set by Newton-CG.

    Each iteration takes the truncated-CG Newton direction d of the energy
    at the current iterate (gradient 2 mu) and conjugates by the
    g = exp(eta s d) that the Armijo line search accepts: s >= 1 moves
    the step to the energy's minimum along exp(t d), and eta starts at
    FlowConfig.eta0 and shrinks by the factor FlowConfig.shrink after each
    rejected trial, so every recorded step is eta0 * shrink^k.  Only tol
    and max_iter are settings.  Stops when ||mu|| <= tol * (1 + energy)
    (outcome CONVERGED), when the iteration budget runs out (ITER_BUDGET)
    or when the line search accepts no step, because every trial is
    rejected or the Newton direction is not finite (LINE_SEARCH_STALLED).
    Conjugation preserves the defining relation, so the residual is
    tracked, not corrected: each accepted iterate's residual is measured
    when its record is appended, so a singular A raises SingularMatrix at
    the first iterate that has it.  initial_residual, from a caller that
    has already measured relation_residual(rep), is recorded as iteration
    0's residual in place of a second measurement.  The trace also counts
    the Hessian products of all the Newton solves.

    An input that fails the stop test first takes the warm step of
    _warm_start, unless the flow starts cold there.  Record 0 stays the
    input; the warm point is record 1, with step FlowConfig.eta0 and no
    Hessian product, and it counts against max_iter.  The Newton-CG loop
    finishes from it, unless it is the minimum.  FlowTrace.warm_start says
    which start was taken.  The warm step moves the endpoint within its
    minimal K-orbit.
    """
    cfg = cfg or FlowConfig()
    p, q = rep.group.p, rep.group.q
    records: list[FlowRecord] = []
    ab = np.stack((rep.A, rep.B))
    energy = _energy(*ab)
    mu = _moment(ab)
    mu_norm = hs_norm(mu)
    # Near the minimum the true energy decrease per step falls below the
    # rounding noise of the energy itself (FlowTrace.resolution_unit), and
    # the measured energy of an accepted tail step may rise within it.
    resolution_unit = _resolution_unit(rep.n)
    outcome = ITER_BUDGET
    step_taken = 0.0
    hessian_products = 0
    warm_start = False
    it = 0
    while True:
        if it == 0 and initial_residual is not None:
            res = initial_residual
        else:
            res = residual(*ab, p, q)
        records.append(FlowRecord(it, energy, mu_norm, step_taken, res))
        if mu_norm <= cfg.tol * (1.0 + energy):
            outcome = CONVERGED
            break
        if it >= cfg.max_iter:
            break
        step = None
        if it == 0:
            step = _warm_start(ab, energy, cfg)
            warm_start = step is not None
        if step is None:
            d, count = _newton_direction(mu, mu_norm, _hessian(ab), energy, cfg.tol)
            hessian_products += count
            step = _line_search(
                ab, mu, mu_norm, d, energy, resolution_unit * (1.0 + energy), cfg
            )
            if step is None:
                outcome = LINE_SEARCH_STALLED
                break
        # The accepted trial's energy and moment are the next iterate's:
        # the same arrays give the same floats.
        ab, energy, mu, mu_norm, step_taken = step
        it += 1
    trace = FlowTrace(tuple(records), outcome, resolution_unit, hessian_products, warm_start)
    return Rep(rep.group, rep.n, ab[0], ab[1]), trace


class MinimalityCertificate(NamedTuple):
    """The spectrum of the energy's Hessian at a point, as verify reports it.

    hessian_kernel_dim: eigenvalues at or below 1e-8 (_KERNEL_CUT) times
        the largest (or within rounding noise of zero), the dimension of the
        Hermitian stabilizer: at a minimal point, the number of pairwise
        non-isomorphic blocks.
    hessian_gap: the smallest eigenvalue above the kernel over the largest.
    moment_over_gap: ||mu|| over that smallest eigenvalue.
    The last two are None when every eigenvalue lies in the kernel (n = 1,
    or scalar A and B), and all three when the Hessian overflows.
    """

    hessian_kernel_dim: int | None
    hessian_gap: float | None
    moment_over_gap: float | None


def _hessian_gram(ab: np.ndarray) -> np.ndarray:
    """The matrix Re tr(E_a H(E_b)) of H = _hessian(ab) on the
    orthonormal basis E of the Hermitian directions: the E_ii, then
    (E_ij + E_ji)/sqrt 2 and i (E_ij - E_ji)/sqrt 2 for i < j."""
    n = ab.shape[1]
    i, j = np.triu_indices(n, 1)
    k = n + np.arange(len(i))
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[range(n), range(n), range(n)] = 1.0
    basis[k, i, j] = basis[k, j, i] = math.sqrt(0.5)
    basis[k + len(i), i, j] = 1j * math.sqrt(0.5)
    basis[k + len(i), j, i] = -1j * math.sqrt(0.5)
    hess = _hessian(ab)
    images = np.stack([hess(e) for e in basis])
    return np.tensordot(basis.conj(), images, axes=((1, 2), (1, 2))).real


def minimality_certificate(rep: Rep) -> MinimalityCertificate:
    """Kernel dimension, gap and ||mu|| / gap of the half-Hessian that the
    flow's Newton steps apply, from the eigenvalues of its Gram matrix.  A
    kernel cut below the rounding noise of the products, 128 n eps times
    the energy, is raised to it.
    """
    ab = np.stack((rep.A, rep.B))
    gram = _hessian_gram(ab)
    if not np.isfinite(gram).all():
        return MinimalityCertificate(None, None, None)
    lam = np.linalg.eigvalsh(gram).tolist()
    cut = max(_KERNEL_CUT * lam[-1], _resolution_unit(rep.n) * _energy(*ab))
    above = [x for x in lam if x > cut]
    if not above:
        return MinimalityCertificate(len(lam), None, None)
    return MinimalityCertificate(
        len(lam) - len(above), above[0] / lam[-1], hs_norm(_moment(ab)) / above[0]
    )
