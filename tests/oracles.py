"""Independent dense-statevector oracles for small codes (n <= 10).

Everything here works on explicit 2**n state vectors with projector
products, never touching the package's enumeration/coset machinery, so it
is a genuinely independent check of the syndrome distributions.  The
recovery operator itself is shared with the package (the recovery
convention is part of the channel definition, not of the computation).

``count_table_reference`` counts all 2**n supports directly (the primal
count), as the reference for the kernel's dual (MacWilliams) transform.
``per_syndrome_backend`` lays out the count table once per syndrome, with
no grouping, as the reference for the exact backend's syndrome classes.
``product_distribution_reference`` is the scalar dict fold that defines
the product-form angle convolution, kept as the bit-exact reference for
the vectorized one.  ``shortest_paths_reference`` and ``match_reference``
are the scalar Bellman-Ford and the memoized subset DP of the matching
decoder, with tuple comparisons instead of integer keys, kept as the
bit-exact reference for the vectorized decode table.
``sample_distribution_reference`` is the Monte Carlo estimator drawn by
``Generator.choice`` on the whole gathered distribution, the bit-exact
reference for the sampler's own inverse CDF.
"""

import functools
import itertools
import math

import numpy as np

from compasscoh import _kernels, build_matching_graph, decode_mwpm
from compasscoh.decoder import bit_reverse
from compasscoh.exact import ExactBackend
from compasscoh.experiments import SampleEstimate
from compasscoh.families import AngleDistribution, _group_parts


def _z_phases(n, mask):
    x = np.arange(1 << n, dtype=np.uint64)
    par = (np.bitwise_count(x & np.uint64(mask)) & np.uint64(1)).astype(np.int64)
    return (-1.0) ** par


def _apply_x(vec, mask):
    idx = np.arange(len(vec)) ^ mask
    return vec[idx]


def _rotation_diag(n, theta):
    x = np.arange(1 << n, dtype=np.uint64)
    w = np.bitwise_count(x).astype(np.float64)
    return np.exp(-1j * (theta / 2.0) * (n - 2.0 * w))


def logical_states(code):
    """(|0bar>, |1bar>) built by projecting |0...0> onto the code space."""
    n = code.n
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = 1.0
    for stab in code.x_stabilizers:
        vec = 0.5 * (vec + _apply_x(vec, stab.mask))
    vec /= np.linalg.norm(vec)
    for stab in code.z_stabilizers:
        assert np.allclose(_z_phases(n, stab.mask) * vec, vec)
    assert np.allclose(_z_phases(n, code.logical_z.mask) * vec, vec)
    one = _apply_x(vec, code.logical_x.mask)
    return vec, one


def statevector_distribution(code, theta, recovery="minweight"):
    """Exact per-syndrome (p_s, theta_s) by projector products.

    Returns dict syndrome_mask -> (p, theta_s, A0, A1) over nonzero
    syndromes, with theta_s in (-pi, pi] under the convention that the
    post-recovery logical map is exp(-i(theta_s/2) Zbar).
    """
    n = code.n
    num_checks = len(code.x_stabilizers)
    zero, one = logical_states(code)
    graph = build_matching_graph(code)
    u = _rotation_diag(n, theta)
    out = {}
    for bits in itertools.product((0, 1), repeat=num_checks):
        v0 = u * zero
        v1 = u * one
        for stab, s in zip(code.x_stabilizers, bits):
            sign = -1.0 if s else 1.0
            v0 = 0.5 * (v0 + sign * _apply_x(v0, stab.mask))
            v1 = 0.5 * (v1 + sign * _apply_x(v1, stab.mask))
        smask = sum(1 << k for k, s in enumerate(bits) if s)
        h = decode_mwpm(graph, smask).mask
        d = _z_phases(n, h)
        m00 = np.vdot(zero, d * v0)
        m11 = np.vdot(one, d * v1)
        m10 = np.vdot(one, d * v0)
        assert abs(m10) < 1e-12
        a0 = (m00 + m11) / 2.0
        a1 = (m00 - m11) / 2.0
        if recovery == "ml" and abs(a1) > abs(a0):
            a0, a1 = a1, a0
        p = abs(a0) ** 2 + abs(a1) ** 2
        if p < 1e-300:
            continue
        prod = a1 * np.conj(a0)
        assert abs(prod.real) <= 1e-12 * max(abs(prod), 1e-30)
        if abs(a0) < 1e-14:
            theta_s = math.pi
        else:
            theta_s = -2.0 * math.atan2(prod.imag, abs(a0) ** 2)
        out[smask] = (p, theta_s, a0, a1)
    return out


def statevector_channel(code, theta, recovery="minweight"):
    dist = statevector_distribution(code, theta, recovery)
    eps = sum(p * (1.0 - math.cos(ts)) for p, ts, _, _ in dist.values())
    delta = sum(p * math.sin(ts) for p, ts, _, _ in dist.values())
    return eps, delta


def ptm_matrix(eps, delta):
    return np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0 - eps, delta, 0.0],
                     [0.0, -delta, 1.0 - eps, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])


def haar_average_infidelity(eps, delta, m, n_polar=6, n_azimuth=7):
    """r_m by explicit matrix powering and Bloch-sphere quadrature.

    The integrand is a degree-2 polynomial on the sphere, so Gauss-Legendre
    in cos(polar) x uniform azimuth integrates it exactly at these orders.
    """
    mat = np.linalg.matrix_power(ptm_matrix(eps, delta), m)
    nodes, weights = np.polynomial.legendre.leggauss(n_polar)
    total = 0.0
    for mu, wt in zip(nodes, weights):
        sin_t = math.sqrt(1.0 - mu * mu)
        for k in range(n_azimuth):
            phi = 2.0 * math.pi * k / n_azimuth
            r = np.array([1.0, sin_t * math.cos(phi), sin_t * math.sin(phi), mu])
            r_out = mat @ r
            fid = 0.5 * (1.0 + r[1:] @ r_out[1:])
            total += wt * fid / n_azimuth
    return 1.0 - total / 2.0


def count_table_reference(n, check_masks, xbar_mask):
    """(syndrome, coset bit, weight) counts from one array of all 2**n supports."""
    v = np.arange(1 << n, dtype=np.uint64)
    key = np.zeros(1 << n, dtype=np.int64)
    for k, m in enumerate(check_masks):
        key |= (np.bitwise_count(v & np.uint64(m)) & 1).astype(np.int64) << k
    key = key << 1 | (np.bitwise_count(v & np.uint64(xbar_mask)) & 1)
    key = key * (n + 1) + np.bitwise_count(v)
    r = len(check_masks)
    counts = np.bincount(key, minlength=(1 << (r + 1)) * (n + 1))
    return counts.reshape(1 << r, 2, n + 1)


def per_syndrome_backend(code):
    """An ``ExactBackend`` of ``code`` whose table holds one column per
    syndrome: column s is syndrome s's even-weight coset row (even weights)
    and odd-weight coset row (odd weights) of the count table, with the
    recovery's weight parity and coset read off the decode table, and the
    class of syndrome s is s.  Its distributions run the backend's own
    per-theta code on every syndrome, so they are the bit-exact reference
    for the backend's classes."""
    n = code.n
    counts = _kernels.count_table(n, [s.mask for s in code.x_stabilizers],
                                  code.logical_x.mask).reshape(-1, n + 1)
    keys = build_matching_graph(code).table()
    parity = keys >> n & 1
    coset = np.bitwise_count(~keys & bit_reverse(code.logical_x.mask, n)) & 1
    even_rows = np.arange(0, len(counts), 2) | (coset ^ parity)
    backend = object.__new__(ExactBackend)
    backend.n, backend.num_checks = n, len(code.x_stabilizers)
    backend._table = np.zeros((n // 2 + 1, 2, len(even_rows)), counts.dtype)
    backend._table[:, 0] = counts[even_rows, 0::2].T
    backend._table[:(n + 1) // 2, 1] = counts[even_rows ^ 1, 1::2].T
    backend._classes = np.arange(len(even_rows))
    backend._rec_parity, backend._id_odd = parity, parity.astype(bool)
    return backend


def product_distribution_reference(parts, max_classes=200_000):
    """Angle convolution as one dict fold per (class, class) pair."""
    bound = 1
    for part, reps in _group_parts(parts):
        k = len(part.p)
        bound *= math.comb(reps + k - 1, k - 1)
        if bound > max_classes:
            raise ValueError("product distribution too large for exact convolution")
    acc: dict[float, float] = {0.0: 1.0}
    for part in parts:
        nxt: dict[float, float] = {}
        for ang, pr in acc.items():
            for a2, p2 in zip(part.theta_s, part.p):
                key = round(ang + float(a2), 12)
                nxt[key] = nxt.get(key, 0.0) + pr * float(p2)
            if len(nxt) > max_classes:
                raise ValueError("product distribution too large for exact convolution")
        acc = nxt
    angles = np.array(sorted(acc))
    probs = np.array([acc[a] for a in angles])
    wrapped = np.arctan2(np.sin(angles), np.cos(angles))
    return AngleDistribution(theta=math.nan, p=probs, theta_s=wrapped)


_INF = 10 ** 9


def sample_distribution_reference(dist, n_samples, seed):
    """(drawn indices, SampleEstimate) of ``rng.choice`` over ``dist.p``."""
    rng = np.random.default_rng(seed)
    p = np.asarray(dist.p, dtype=float)
    idx = rng.choice(len(p), size=n_samples, p=p / p.sum())
    theta_s = np.asarray(dist.theta_s, dtype=float)[idx]
    r1_scores = (1.0 - np.cos(theta_s)) / 3.0
    dia_scores = 2.0 * np.abs(np.sin(theta_s))
    return idx, SampleEstimate(
        mean_r1=float(r1_scores.mean()),
        r1_stderr=float(r1_scores.std(ddof=1) / math.sqrt(n_samples)),
        mean_diamond=float(dia_scores.mean()),
        diamond_stderr=float(dia_scores.std(ddof=1) / math.sqrt(n_samples)))


def _lex_less(a: int, b: int) -> bool:
    """Set order: a < b iff the smallest qubit where they differ is in a."""
    diff = a ^ b
    if diff == 0:
        return False
    low = diff & -diff
    return bool(a & low)


def shortest_paths_reference(code):
    """All-pairs (dist, path) over checks plus boundary (node r).

    Scalar Bellman-Ford fixpoint per source with the (length, lex)
    tie-break; parallel edges collapse to their lowest-index qubit.
    """
    n = code.n
    num_checks = len(code.x_stabilizers)
    checks_of = [[] for _ in range(n)]
    for k, stab in enumerate(code.x_stabilizers):
        for q in stab.qubits:
            checks_of[q].append(k)
    boundary = num_checks
    num_nodes = num_checks + 1
    dist = [[_INF] * num_nodes for _ in range(num_nodes)]
    path = [[0] * num_nodes for _ in range(num_nodes)]
    for v in range(num_nodes):
        dist[v][v] = 0
    step: dict[tuple[int, int], int] = {}
    for q in range(n):
        cs = checks_of[q]
        if not cs:
            continue
        u, v = cs[0], cs[1] if len(cs) == 2 else boundary
        key = (min(u, v), max(u, v))
        if key not in step:  # qubit order is ascending, first wins
            step[key] = q
    adj = [[] for _ in range(num_nodes)]
    for (u, v), q in step.items():
        adj[u].append((v, q))
        adj[v].append((u, q))
    for src in range(num_nodes):
        changed = True
        while changed:
            changed = False
            for u in range(num_nodes):
                if dist[src][u] == _INF:
                    continue
                for v, q in adj[u]:
                    cand_d = dist[src][u] + 1
                    cand_p = path[src][u] | (1 << q)
                    if cand_d < dist[src][v] or (
                            cand_d == dist[src][v]
                            and _lex_less(cand_p, path[src][v])):
                        dist[src][v] = cand_d
                        path[src][v] = cand_p
                        changed = True
    return dist, path


@functools.lru_cache(maxsize=8)
def _match_state(code):
    dist, path = shortest_paths_reference(code)
    return dist, path, len(code.x_stabilizers), {0: (0, 0)}


def match_reference(code, flagged_mask):
    """(cost, correction mask) of a syndrome by the memoized subset DP.

    The lowest flagged check matches the boundary or another flagged
    check; candidates compare as (weight, lex) tuples.
    """
    dist, path, boundary, memo = _match_state(code)
    hit = memo.get(flagged_mask)
    if hit is not None:
        return hit
    stack = [flagged_mask]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        i = (s & -s).bit_length() - 1
        rest_b = s & (s - 1)
        pending = False
        if rest_b not in memo:
            stack.append(rest_b)
            pending = True
        pairs = []
        r = rest_b
        while r:
            j = (r & -r).bit_length() - 1
            r &= r - 1
            rest_ij = rest_b & ~(1 << j)
            pairs.append((j, rest_ij))
            if rest_ij not in memo:
                stack.append(rest_ij)
                pending = True
        if pending:
            continue
        stack.pop()
        bd = dist[i][boundary]
        best = None
        if bd < _INF:
            c, corr = memo[rest_b]
            best = (bd + c, path[i][boundary] | corr)
        for j, rest_ij in pairs:
            dij = dist[i][j]
            if dij >= _INF:
                continue
            c, corr = memo[rest_ij]
            cand = (dij + c, path[i][j] | corr)
            if best is None or cand[0] < best[0] or (
                    cand[0] == best[0] and _lex_less(cand[1], best[1])):
                best = cand
        if best is None:
            raise AssertionError("syndrome not matchable")
        memo[s] = best
    return memo[flagged_mask]
