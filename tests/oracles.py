"""Independent oracles for the test suite.

These deliberately share no code with the library: the second-quantized
action is computed by expanding polynomials in commuting creation operators
term by term in plain dictionaries. The library's lift builds the same
products by a vectorized recursion, so the permanent formula (checked with
``permanent_naive`` and ``permanent_ryser`` in test_fock.py) is the
independent method; ``permanent_expansion`` below cross-checks those two.
"""

import math

import numpy as np


def _multiply_linear_form(poly, coeffs):
    """Multiply a creation-operator polynomial by sum_i coeffs[i] * a_i^dag."""
    out = {}
    for occ, c in poly.items():
        for i, ci in enumerate(coeffs):
            if ci == 0:
                continue
            bumped = list(occ)
            bumped[i] += 1
            key = tuple(bumped)
            out[key] = out.get(key, 0) + c * ci
    return out


def lift_oracle(matrix, basis):
    """Second-quantized matrix by direct polynomial expansion.

    Each basis column |n> is prod_j (a_j^dag)^{n_j} |0> / sqrt(prod n_j!);
    substituting a_j^dag -> sum_i S_ij a_i^dag and expanding the product
    gives the image's monomial coefficients, which convert to Fock
    amplitudes via sqrt(prod m_i!).
    """
    matrix = np.asarray(matrix, dtype=complex)
    n_modes = len(basis.space)
    index = _index_oracle(n_modes, basis.n_photons)
    dim = len(index)
    out = np.zeros((dim, dim), dtype=complex)
    for occ, col in index.items():
        poly = {(0,) * n_modes: 1.0 + 0.0j}
        for j, n_j in enumerate(occ):
            for _ in range(n_j):
                poly = _multiply_linear_form(poly, matrix[:, j])
        in_norm = math.sqrt(math.prod(math.factorial(k) for k in occ))
        for image_occ, coeff in poly.items():
            amp = coeff * math.sqrt(math.prod(math.factorial(k) for k in image_occ)) / in_norm
            out[index[image_occ], col] = amp
    return out


def lift_generator_oracle(matrix, basis):
    """dGamma(E) = sum_ij E_ij a_i^dag a_j, column by column: each nonzero
    E_ij, in row-major order, maps |n> with n_j > 0 to sqrt(n'_i n_j) |n'>,
    n' = n - e_j + e_i, found in a dict of the occupations."""
    matrix = np.asarray(matrix, dtype=complex)
    n_modes = len(basis.space)
    index = _index_oracle(n_modes, basis.n_photons)
    out = np.zeros((len(index), len(index)), dtype=complex)
    for i, j in zip(*np.nonzero(matrix)):
        for occ, col in index.items():
            if occ[j]:
                image = list(occ)
                image[j] -= 1
                image[i] += 1
                out[index[tuple(image)], col] += matrix[i, j] * np.sqrt(float(image[i] * occ[j]))
    return out


def ladder_oracle(basis):
    """The lift's creation-operator tables (``FockBasis._ladder``), with every
    index of n - e_i looked up state by state in a dict of the level below."""
    m = len(basis.space)
    below = {(0,) * m: 0}
    levels = []
    for k in range(1, basis.n_photons + 1):
        states = list(occupations_oracle(m, k))
        occ = np.array(states, dtype=np.intp)
        lower = np.zeros_like(occ)
        for row, state in enumerate(states):
            for i, count in enumerate(state):
                if count:
                    lower[row, i] = below[state[:i] + (count - 1,) + state[i + 1 :]]
        root = np.sqrt(occ)
        first = np.argmax(occ > 0, axis=1)
        rows = np.arange(len(states))
        modes = []
        for i in range(m):
            occupied = np.flatnonzero(occ[:, i])
            modes.append((occupied, lower[occupied, i], root[occupied, i, None]))
        levels.append((lower[rows, first], root[rows, first], first, tuple(modes)))
        below = {state: row for row, state in enumerate(states)}
    return tuple(levels)


def apply_oracle(matrix, state):
    """Image of a Fock state under the polynomial-expansion oracle."""
    return lift_oracle(matrix, state.basis) @ state.amplitudes


def permanent_expansion(matrix):
    """Permanent by explicit minor expansion along the first row (recursive)."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    cols = list(range(n))
    for j in range(n):
        rest = a[1:, cols[:j] + cols[j + 1 :]]
        total += a[0, j] * permanent_expansion(rest)
    return total


def occupations_oracle(modes, total):
    """Occupation vectors of `total` photons in `modes` modes, lexicographically
    decreasing, by recursion on the first mode's count."""
    if modes == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in occupations_oracle(modes - 1, total - first):
            yield (first,) + rest


def _index_oracle(modes, total):
    """{occupation: position} over the occupations of ``total`` photons in
    ``modes`` modes, in the recursive enumeration's order."""
    return {occ: i for i, occ in enumerate(occupations_oracle(modes, total))}


def splits_oracle(basis):
    """The split table, ``(counts, indices)`` per split ascending in the
    per-pair photon counts, by ``np.unique`` over the rows of counts."""
    counts = np.array(basis.states).reshape(len(basis), -1, 2).sum(axis=2)
    keys, inverse = np.unique(counts, axis=0, return_inverse=True)
    parts = np.split(np.argsort(inverse.ravel(), kind="stable"), np.cumsum(np.bincount(inverse.ravel()))[:-1])
    return tuple((tuple(key.tolist()), idx) for key, idx in zip(keys, parts))


def mirror_oracle(basis):
    """The index of each basis state's mirror image, looked up state by state."""
    index = _index_oracle(len(basis.space), basis.n_photons)
    perm = basis.space.mirror_permutation
    return np.array([index[tuple(occ[j] for j in perm)] for occ in index], dtype=np.intp)


def sample_block_oracle(rng, kind, unitary, floor, max_attempts=100):
    """One 2x2 family block drawn through LAPACK, plus the rejections it took.

    The reference for ``ScatterSampler``'s closed forms: it consumes ``rng``
    in the sampler's order, takes sigma_max from the SVD, the determinant
    and eigenvalues from LU and the eigensolver, and the Haar unitary from
    Householder QR with the phases of R's diagonal divided out. Returns
    ``(block, rejected)``, or ``(None, max_attempts)`` when every attempt
    fails the genericity floor.
    """

    def gaussian(n):
        z = rng.standard_normal(2 * n)
        return (z[:n] + 1j * z[n:]) / math.sqrt(2.0)

    for attempt in range(max_attempts):
        if kind == "h0":
            if unitary:
                th1, th2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
                s_plus, s_minus = np.exp(1j * th1), np.exp(1j * th2)
                alpha, beta = (s_plus + s_minus) / 2.0, (s_plus - s_minus) / 2.0
            else:
                alpha, beta = gaussian(2)
            block = np.array([[alpha, beta], [beta, alpha]])
        elif unitary:
            q, r = np.linalg.qr(gaussian(4).reshape(2, 2))
            block = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
        else:
            block = gaussian(4).reshape(2, 2)
        if not unitary:
            block = block * (rng.uniform(floor, 1.0) / np.linalg.norm(block, 2))
        evals = np.linalg.eigvals(block)
        if abs(np.linalg.det(block)) > floor and abs(evals[0] - evals[1]) > floor:
            return block, attempt
    return None, max_attempts


def dense_bookkeeping_oracle(basis, candidates):
    """Rays of a search from its one-column candidates, by dense bookkeeping.

    ``candidates`` holds ``(m_tot, indices, column)`` per candidate. Each
    column is embedded in a dense zero vector over the basis, normalised,
    rotated so its first amplitude above 1e-10 is real positive, and given
    the mirror parity of the whole vector under ``mirror_oracle``. The rays
    are sorted by the tuple of -m_tot and every rounded real, then
    imaginary, amplitude. Returns ``(m_tot, tau, amplitudes)`` per ray.
    """
    mirror = mirror_oracle(basis)
    rays = []
    for m_tot, indices, column in candidates:
        amps = np.zeros(len(basis), dtype=complex)
        amps[indices] = column
        amps = amps / np.linalg.norm(amps)
        lead = amps[np.flatnonzero(np.abs(amps) > 1e-10)[0]]
        amps = amps * (abs(lead) / lead)
        taus = [tau for tau in (1, -1) if np.linalg.norm(amps[mirror] - tau * amps) < 1e-10]
        rays.append((m_tot, taus[0] if taus else None, amps))

    def key(ray):
        return (-ray[0],) + tuple(np.round(ray[2].real, 9)) + tuple(np.round(ray[2].imag, 9))

    return sorted(rays, key=key)


# the 2x2 pair blocks of the family's Lie algebra, written out: h0's swap X,
# and the sl(2) generators E12, E21 and E11 - E22 on an hm component's +m
# pair, each with X E X on its -m pair
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
_E12, _E21 = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
SL2_PAIR_BLOCKS = ((_E12, _E21), (_E21, _E12), (np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])))


def dsym(block, k):
    """dSym^k of a 2x2 matrix, its generator lift on the k-photon basis of one
    mode pair (states (k - j, j), j = 0..k): E12 maps |k - j - 1, j + 1> to
    sqrt((j + 1)(k - j)) |k - j, j>."""
    j = np.arange(k + 1)
    hop = np.sqrt((j[:-1] + 1) * (k - j[:-1]))
    return np.diag(block[0, 0] * (k - j) + block[1, 1] * j) + np.diag(block[0, 1] * hop, 1) + np.diag(block[1, 0] * hop, -1)


def swap_eigen_oracle(k):
    """``(values, vectors)`` of dSym^k(X) through LAPACK's eigh: the mirror
    Fock states of k photons, by ascending eigenvalue n_s - n_a."""
    return np.linalg.eigh(dsym(SWAP, k))


def hm_kernel_oracle(a, b):
    """``(s, v)``: the singular values and right singular vectors (as
    columns) of an hm component's stacked sl(2) on Sym^a x Sym^b,
    dSym^a(E) x 1 + 1 x dSym^b(X E X) over its three generators, through
    LAPACK's SVD. The kernel is v's columns past the numerical rank."""
    stack = np.vstack([np.kron(dsym(e, a), np.eye(b + 1)) + np.kron(np.eye(a + 1), dsym(xex, b))
                       for e, xex in SL2_PAIR_BLOCKS])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    return s, vh.conj().T
