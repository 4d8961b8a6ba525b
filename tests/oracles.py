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
    dim = len(basis)
    out = np.zeros((dim, dim), dtype=complex)
    for col, occ in enumerate(basis.states):
        poly = {(0,) * n_modes: 1.0 + 0.0j}
        for j, n_j in enumerate(occ):
            for _ in range(n_j):
                poly = _multiply_linear_form(poly, matrix[:, j])
        in_norm = math.sqrt(math.prod(math.factorial(k) for k in occ))
        for image_occ, coeff in poly.items():
            amp = coeff * math.sqrt(math.prod(math.factorial(k) for k in image_occ)) / in_norm
            out[basis.index(image_occ), col] = amp
    return out


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
